"""Byte-identity pins of the vi, mixed, lp, mpi and pi traces on every fixture.

Each run below writes its trace as CSV and as JSON, with every row's
wall_time zeroed, and the sha256 of each text must equal the value
pinned here.  The pins were taken before the mixed loop's fast paths
(the gathered F_theta floor, the pair-cost flag of `pair_backup`, the
supplied M(Q) of `greedy_select`, the per-run B index), so they show
that those paths leave every recorded float, policy, B set and count
unchanged.  The runs cover the finite-nk, exact, masked, clamped,
epsilon-greedy and partial-B paths; the affine fixtures admit none of
these algorithms but vi.  The pi pins (policy iteration from the cheapest
control and from the greedy policy for J0) were taken before a policy
built from choices was read by gathering at its chosen pairs, in T_mu
and the induced chain.  The lp pins with clamps and with an initial
policy (FX-P4 has no policy but the greedy one) were taken while the
mixed and lp methods still ran as two loops, before they became one.
A run that reaches its cap is pinned through the SolveResult that its
SolverCapError carries.  Two kinds of pin were retaken since: FX-D's
mixed-exact pin when stop rules came to be priced on the states (its
rows and policies stayed, values moved by round-off), and the
mixed-masked pins of FX-N2, FX-P2 and FX-P4 when a masked run came to
stop only after a whole cycle of quiet rows (each had stopped after its
first row).  Eight FX-D pins were retaken when discounted runs came to
stop on the MacQueen-Porteus bracket instead of the residual: mixed
with nk 10, 1, "exact", the occupation B, both clamps and the initial
policy, and mpi.  Each now ends on the first row whose bracket is
within tol, fewer rows than before, and its config records the
``error_bound``; the rows it keeps are the rows it had, bit for bit.
FX-D's masked and schedule-eps runs, which keep to their cap, and its
pi runs kept their pins, as did every N and P run.

The vi pins cover every fixture, the affine FX-P3a and FX-P3b too, from
`_start` and from zero, with a 120-row cap.  They were taken while a
trace still held one `TraceRow` object per row, before a trace came to
hold its rows as columns.  FX-P3a's pin from zero was retaken when value
iteration came to pin J*'s infinities from the model's graph: every
row's ``divergent`` is [1] from row 1, and the run ends on row 2 at
(0, inf, 0), where a window rule had flagged state 1 at row 80.

Every pinned run also replays its certificates: `verify_certificates`,
which takes vector maxima over the trace's columns, must give the
report of the row walk kept in `tests/reference_ops.py` (names,
outcomes, details and margins bit for bit), on the run's trace and on
its CSV and JSON round trips.
"""

import hashlib

import numpy as np
import pytest

import reference_ops as ref
from totaldp.fixtures import fixture, fixture_names
from totaldp.model import Policy
from totaldp.modelio import trace_from_csv, trace_from_json, trace_to_csv, trace_to_json
from totaldp.operators import greedy_select, h_backup
from totaldp.solvers import (
    CustomB,
    FullB,
    OccupationSupportB,
    SolverCapError,
    SolverConfig,
    check_admits,
    round_robin_masks,
    run,
    verify_certificates,
)


def _start(fx):
    """J0 above J* (zero in N, 1.5 J* + 1 elsewhere) and Q0 = H(J0)."""
    model = fx.model
    J0 = (np.zeros(model.num_states) if model.regime == "N"
          else 1.5 * fx.Jstar + 1.0)
    return J0, h_backup(model, J0)


def _configs(fx):
    """Label -> SolverConfig of every pinned run on the fixture: value
    iteration from `_start` and from zero on every fixture, the other
    algorithms on the fixtures that admit them."""
    model = fx.model
    n = model.num_states
    J0, Q0 = _start(fx)
    vi = dict(algorithm="vi", ground_truth=fx.ground_truth(), max_iter=120)
    out = {"vi-start": SolverConfig(J0=J0, **vi),
           "vi-zero": SolverConfig(J0=np.zeros(n), **vi)}
    try:
        check_admits("mixed", model)
    except ValueError:
        return out
    common = dict(J0=J0, Q0=Q0, ground_truth=fx.ground_truth(), max_iter=60)
    half = CustomB((frozenset(range(0, n, 2)), frozenset(), frozenset(range(n))))
    out |= {
        "mixed-nk10": SolverConfig(algorithm="mixed", nk=10, **common),
        "mixed-nk1": SolverConfig(algorithm="mixed", nk=1, **common),
        "mixed-exact": SolverConfig(algorithm="mixed", nk="exact", **common),
        "mixed-schedule-eps": SolverConfig(algorithm="mixed", nk=(1, 3, 2),
                                           epsilon=0.5, bstrategy=half, **common),
        "mixed-occupation": SolverConfig(algorithm="mixed", nk=4,
                                         bstrategy=OccupationSupportB(), **common),
        "mixed-clamped": SolverConfig(algorithm="mixed", nk=3,
                                      clamp_hi=J0 + 0.5, clamp_lo=np.full(n, -5.0),
                                      **common),
        "mixed-clamp-binds": SolverConfig(algorithm="mixed", nk=2, epsilon=0.1,
                                          clamp_lo=fx.Jstar + 0.25, **common),
        "mixed-masked": SolverConfig(algorithm="mixed", nk=2,
                                     masks=round_robin_masks(model), **common),
        "mixed-initial-policy": SolverConfig(
            algorithm="mixed", nk=5, initial_policy=Policy.deterministic(model, [0] * n),
            **common),
        "mpi-nk10": SolverConfig(algorithm="mpi", nk=10, J0=J0, max_iter=60,
                                 initial_policy=Policy.deterministic(model, [0] * n),
                                 ground_truth=fx.ground_truth()),
    }
    pi = dict(algorithm="pi", ground_truth=fx.ground_truth(), max_iter=60)
    out["pi-cheapest"] = SolverConfig(
        initial_policy=greedy_select(model, model.pair_costs), **pi)
    out["pi-greedy"] = SolverConfig(initial_policy=greedy_select(model, Q0), **pi)
    if model.regime == "P":
        out["lp"] = SolverConfig(algorithm="lp", bstrategy=FullB(), **common)
        out["lp-partial"] = SolverConfig(algorithm="lp", bstrategy=half, **common)
        out["lp-clamped"] = SolverConfig(algorithm="lp", clamp_hi=J0 - 0.5,
                                         clamp_lo=J0 - 1.0, **common)
        last = Policy.deterministic(model, [len(c) - 1 for c in model.controls])
        if last.descriptor() != greedy_select(model, Q0).descriptor():
            out["lp-initial-policy"] = SolverConfig(algorithm="lp", initial_policy=last,
                                                    **common)
    return out


def _texts(trace):
    trace = trace.timeless()
    return trace_to_csv(trace), trace_to_json(trace)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned_runs():
    """(fixture, label) of every pinned run."""
    return [(name, label) for name in fixture_names() for label in _configs(fixture(name))]


# (csv sha256, json sha256), first 16 hex digits.
PINS = {
    "FX-D/mixed-nk10": ("08c7253b7c4f85be", "c16d716f3f81dd7e"),
    "FX-D/mixed-nk1": ("c78bc71c0590c349", "f839da8632362d2d"),
    "FX-D/mixed-exact": ("2ec7fdb17ed40f5d", "5d557328637e55dc"),
    "FX-D/mixed-schedule-eps": ("735b4b020af1fce6", "d62e31eabb66758c"),
    "FX-D/mixed-occupation": ("ded153f8893c053f", "24d7749746d872b9"),
    "FX-D/mixed-clamped": ("c768c0d5a57627f1", "ba6b0f42638cdde2"),
    "FX-D/mixed-clamp-binds": ("50e18e9954359e86", "060e80de449a47ca"),
    "FX-D/mixed-masked": ("1f2f29bd1be661ec", "b0915272fa0d33b8"),
    "FX-D/mixed-initial-policy": ("01ce7eeb7e01ec41", "11d4b041191586f3"),
    "FX-D/mpi-nk10": ("10a85a205a7a10d7", "037b86e234e95f80"),
    "FX-D/pi-cheapest": ("4c3c8a9a2b3176da", "b6458fffeedea6f5"),
    "FX-D/pi-greedy": ("aa179f864c996cd1", "7b50befb8b8f48b6"),
    "FX-N2/mixed-nk10": ("db10f8d0bf6db95c", "4c6c18bbbf931015"),
    "FX-N2/mixed-nk1": ("2058f2f7da105899", "8793f5ce3e3c01a0"),
    "FX-N2/mixed-exact": ("edf384583ec96368", "912395774600cca3"),
    "FX-N2/mixed-schedule-eps": ("c4d1960b5b9f6b62", "d1e843063cabb10f"),
    "FX-N2/mixed-occupation": ("15c6b20f1614308c", "683cc5d370704101"),
    "FX-N2/mixed-clamped": ("680c327ce4b7d3b8", "46813191558657db"),
    "FX-N2/mixed-clamp-binds": ("6f23fcb19942d57f", "3b03ff19598a6e37"),
    "FX-N2/mixed-masked": ("ac1f77db4432527f", "f9a831ae1929397d"),
    "FX-N2/mixed-initial-policy": ("d7375bdf81d72558", "b1d7d399774596b5"),
    "FX-N2/mpi-nk10": ("35f99c831fc9b8c3", "e4148c4941a6388d"),
    "FX-N2/pi-cheapest": ("cef09a5eefa8df7a", "021deb56b1d132c1"),
    "FX-N2/pi-greedy": ("cef09a5eefa8df7a", "021deb56b1d132c1"),
    "FX-P2/mixed-nk10": ("0eae97df4f19d8c6", "09ee55072733444d"),
    "FX-P2/mixed-nk1": ("d850939be6cb09f6", "2159ad51ed5a3863"),
    "FX-P2/mixed-exact": ("6f415f2a80b54681", "33d9c025d9b8be11"),
    "FX-P2/mixed-schedule-eps": ("85fefe20a1091096", "3520357a93c61a3a"),
    "FX-P2/mixed-occupation": ("4e5ea3ac88e55654", "0498d28d34852939"),
    "FX-P2/mixed-clamped": ("5a312c0039233a33", "8ba93ca718c6ee95"),
    "FX-P2/mixed-clamp-binds": ("4398523eeb89e6c7", "a0c5d0148f708bea"),
    "FX-P2/mixed-masked": ("5a3b397abe6d56be", "d5c649029ca1311d"),
    "FX-P2/mixed-initial-policy": ("c286418caddfde5b", "38e2e6fccd7ed2c9"),
    "FX-P2/mpi-nk10": ("35dc1bb91f6a7b61", "f727fb6cad334708"),
    "FX-P2/pi-cheapest": ("e4e6c594f07dddeb", "794d3dba33617d83"),
    "FX-P2/pi-greedy": ("e4e6c594f07dddeb", "794d3dba33617d83"),
    "FX-P2/lp": ("35e224d2c03583ef", "626d4e5e5a737f50"),
    "FX-P2/lp-partial": ("ad71940374f7bbbe", "2553f23ed08c111f"),
    "FX-P2/lp-clamped": ("70f611f11e2fab53", "ee98f35999d6e360"),
    "FX-P2/lp-initial-policy": ("0077a70fdf3dfd63", "2c422302d70bb88e"),
    "FX-P4/mixed-nk10": ("d4cf44b3d1642f68", "f4ef7235a34722f8"),
    "FX-P4/mixed-nk1": ("404217d41d8aa98a", "1b314ee1223b67a4"),
    "FX-P4/mixed-exact": ("7eedde171ae42c2e", "1edf8888dfff13c0"),
    "FX-P4/mixed-schedule-eps": ("5565cb9f7189094a", "53265362eea86594"),
    "FX-P4/mixed-occupation": ("5ab704dc71b2c0f8", "717c733d8c11ef54"),
    "FX-P4/mixed-clamped": ("42aa5caa40122240", "9ecdb4a6b8d1a627"),
    "FX-P4/mixed-clamp-binds": ("481024081f6aea45", "07adb8d4f983c5f4"),
    "FX-P4/mixed-masked": ("55274ab24c6bf2f9", "e6b0ef2da0dd9fff"),
    "FX-P4/mixed-initial-policy": ("b1dae33a8ba1e927", "71f64e19899f1565"),
    "FX-P4/mpi-nk10": ("37b25b443ea4c8b8", "e117c4e195479c44"),
    "FX-P4/pi-cheapest": ("74bb5ee58fc1a4d0", "bf4c26cd1556eb51"),
    "FX-P4/pi-greedy": ("74bb5ee58fc1a4d0", "bf4c26cd1556eb51"),
    "FX-P4/lp": ("4702661c77a8fa81", "782d8ca37275479f"),
    "FX-P4/lp-partial": ("d1043919a7ded45a", "aded6dbd1e3fa398"),
    "FX-P4/lp-clamped": ("a1500252d5189352", "d4e61bd382da45b5"),
    "FX-D/vi-start": ("147ed1aedd4d9af2", "a2c6a655ebdbd7cf"),
    "FX-D/vi-zero": ("13c8d8648b6cd621", "9403c9068f1ba418"),
    "FX-N2/vi-start": ("61ff95fe188cea11", "286fc4150ea474d9"),
    "FX-N2/vi-zero": ("61ff95fe188cea11", "286fc4150ea474d9"),
    "FX-P2/vi-start": ("b977bfbc5efad9f3", "fb5ae76ccc8c1a52"),
    "FX-P2/vi-zero": ("968ddae1e31badb0", "9dbec60416cbed19"),
    "FX-P3a/vi-start": ("66537f6b5775d125", "4a59de69876f26c4"),
    "FX-P3a/vi-zero": ("1e5943e035f12114", "85f34e518737dc4d"),
    "FX-P3b/vi-start": ("5b3aa611de3cd3a6", "ada032f03e911f58"),
    "FX-P3b/vi-zero": ("af72d25af8eb5360", "967b4be5811ece1b"),
    "FX-P4/vi-start": ("b1338cfb8580cd65", "abe921d471492f3a"),
    "FX-P4/vi-zero": ("6c2ccf1b8365f027", "18288ada382745c7"),
}


def test_every_run_is_pinned():
    assert set(PINS) == {f"{name}/{label}" for name, label in pinned_runs()}


def _result(fx, label):
    try:
        return run(fx.model, _configs(fx)[label])
    except SolverCapError as err:  # a capped run's trace is pinned too
        return err.result


@pytest.mark.parametrize("name, label", pinned_runs())
def test_trace_text_is_pinned(name, label):
    fx = fixture(name)
    res = _result(fx, label)
    assert tuple(_digest(t) for t in _texts(res.trace)) == PINS[f"{name}/{label}"]


def _report_bits(report):
    return [(c.name, c.passed, np.float64(c.margin).tobytes(), c.detail)
            for c in report.checks]


@pytest.mark.parametrize("name, label", pinned_runs())
def test_certificate_replay_matches_the_row_walk(name, label):
    # The same checks, outcomes, margins (bit for bit) and details as the
    # row-walking replay, on the run's trace and on its round trips.
    fx = fixture(name)
    trace = _result(fx, label).trace
    for back in (trace, trace_from_csv(trace_to_csv(trace)),
                 trace_from_json(trace_to_json(trace))):
        got = verify_certificates(fx.model, back, fx.ground_truth())
        want = ref.verify_certificates(fx.model, back, fx.ground_truth())
        assert _report_bits(got) == _report_bits(want)
