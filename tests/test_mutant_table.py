"""The mutation gate's table in tests/mutants.py stays current: every mutant's
snippet occurs exactly once in its file under src/povmint, so each mutant
still applies, and every test it names is defined, so a renamed test cannot
turn a kill into a collection error.  Static: nothing is mutated and no
subprocess starts."""

import mutants


def test_every_snippet_occurs_once():
    assert mutants.stale_snippets() == []


def test_every_test_id_resolves():
    ids = sorted({t for m in mutants.MUTANTS for t in m.tests})
    assert mutants.unresolved_tests(ids) == []


def test_a_missing_file_class_or_test_does_not_resolve():
    ids = ["tests/test_gone.py::TestRules::test_x",
           "tests/test_numerics.py::TestGone::test_x",
           "tests/test_numerics.py::TestRules::test_gone[a-b]",
           "tests/test_numerics.py::TestRules::test_bad_inputs::test_x",
           "tests/test_numerics.py::TestRules::test_bad_inputs"]
    assert mutants.unresolved_tests(ids) == [f"{i}: not defined" for i in ids[:4]]
