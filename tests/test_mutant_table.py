"""The mutation gate's table in tests/mutants.py stays current: every mutant's
snippet occurs exactly once in its file under src/povmint, so each mutant
still applies.  Static: nothing is mutated and no subprocess starts."""

import mutants


def test_every_snippet_occurs_once():
    assert mutants.stale_snippets() == []
