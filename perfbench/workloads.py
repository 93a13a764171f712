"""The benchmark's workloads.

Each workload has a ``setup(cli, seed)`` that builds its inputs (and, for
quantize-warm, the warm plane family) and an ``op(state, i)`` that performs
one user action and checks its output.  The seed only generates inputs; op
``i`` always gets the same inputs for the same seed, so any op can be re-run
to test that its output is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

# Tolerance of the plane suite's quadratic-symbol check (criterion 6); the
# quantize-warm closed-form check uses it unchanged.
QUANTIZE_TOL = 1e-5


@dataclass
class Outcome:
    """What one op produced: ``key`` names its inputs, ``output`` is the
    bytes that must repeat exactly for the same key."""

    key: object
    output: bytes
    attempted: int
    failed: int


@dataclass
class Workload:
    name: str
    setup: Callable[..., dict]
    op: Callable[[dict, int], Outcome]


def _verify(cli, argv) -> tuple[bytes, int, int]:
    """Run ``povmint verify``; return (report bytes, checks, failed checks).

    Checks are the report rows plus the exit code; a row fails when its
    ``pass`` is false, an unreadable report fails one check.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    attempted, failed = 1, int(code != 0)
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return text.encode(), attempted + 1, failed + 1
    rows = report["checks"]
    attempted += len(rows)
    failed += sum(1 for row in rows if row["pass"] is not True)
    return text.encode(), attempted, failed


# -- plane-verify / halfplane-verify: one suite at its defaults -------------


def _suite_workload(name: str, suite: str) -> Workload:
    argv = ["verify", suite]

    def setup(cli, seed):
        # the suite runs at its defaults: the seed has no input to generate
        return {"cli": cli}

    def op(state, i):
        output, attempted, failed = _verify(state["cli"], argv)
        return Outcome(tuple(argv), output, attempted, failed)

    return Workload(name, setup, op)


# -- quantize-warm: the engine on a warm plane family -----------------------


def _quantize_setup(cli, seed):
    import numpy as np

    plane, core = cli.plane, cli.core
    params = plane.ThermalParams(0.2, 48)
    fam = plane.plane_family(params)
    dim, blk = params.dim, params.dim // 2
    one = core.quantize(fam, lambda nd: 1.0 + 0.0 * nd[..., 0])
    q, p = plane.q_matrix(dim), plane.p_matrix(dim)
    shift = plane.quadratic_shift(params) * np.eye(dim)
    # closed forms of the five symbols 1, q, p, q^2, p^2 on the protected block
    basis = np.stack([np.eye(dim), q, p, q @ q + shift, p @ p + shift])[:, :blk, :blk]
    warm_err = float(np.max(np.abs(one[:blk, :blk] - basis[0])))
    return {"core": core, "fam": fam, "seed": seed, "blk": blk, "basis": basis,
            "setup_checks": (1, int(not warm_err <= QUANTIZE_TOL))}


def _quantize_op(state, i):
    import numpy as np

    c = np.random.default_rng([state["seed"], i]).uniform(-1.0, 1.0, 5)

    def symbol(nd):
        r = np.sqrt(2.0 * nd[..., 0])
        q = r * np.cos(nd[..., 1])
        p = r * np.sin(nd[..., 1])
        return c[0] + c[1] * q + c[2] * p + c[3] * q * q + c[4] * p * p

    a = state["core"].quantize(state["fam"], symbol)
    blk = state["blk"]
    expected = np.tensordot(c, state["basis"], axes=1)
    err = float(np.max(np.abs(a[:blk, :blk] - expected)))
    return Outcome(i, np.ascontiguousarray(a).tobytes(), 1,
                   int(not err <= QUANTIZE_TOL))


# -- small-suites: the engine on tiny families, finite, report rendering ----

SMALL_SUITES = ("circle", "core", "sphere", "finite")


def _small_setup(cli, seed):
    return {"cli": cli, "seed": seed}


def _small_op(state, i):
    import numpy as np

    suite_seed = int(np.random.default_rng([state["seed"], i]).integers(2 ** 31))
    outputs, attempted, failed = [], 0, 0
    for suite in SMALL_SUITES:
        out, a, f = _verify(state["cli"], ["verify", suite, "--seed", str(suite_seed)])
        outputs.append(out)
        attempted += a
        failed += f
    return Outcome(i, b"".join(outputs), attempted, failed)


WORKLOADS = {
    w.name: w for w in [
        _suite_workload("plane-verify", "plane"),
        _suite_workload("halfplane-verify", "halfplane"),
        Workload("quantize-warm", _quantize_setup, _quantize_op),
        Workload("small-suites", _small_setup, _small_op),
    ]
}
