"""Tests of the benchmark itself: seeded inputs, self-time arithmetic, the
tracer's rebinding, the speed calibration, and the closed forms and parsers
its checks rely on."""

import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import diagramalg  # noqa: E402
from diagramalg import characters, cli, irreps  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402

LIB = types.SimpleNamespace(
    Diagram=diagramalg.Diagram, LaurentPoly=diagramalg.LaurentPoly, Element=diagramalg.Element,
    irreps=irreps, characters=characters, cli=cli,
)


def round_keys(workload, seed, index=0):
    ctx = types.SimpleNamespace(deferred=[], twisted=[])
    return [r.key for r in workloads.make_round(workload, LIB, seed, index, ctx).requests]


def test_inputs_are_deterministic_for_a_seed_and_differ_between_seeds():
    for workload in workloads.WORKLOADS:
        first = round_keys(workload, 7)
        assert first == round_keys(workload, 7), workload
        assert first != round_keys(workload, 8), workload
        assert first != round_keys(workload, 7, index=1), workload


def test_round_size_counts_the_requests_of_a_round():
    for workload in workloads.WORKLOADS:
        assert len(round_keys(workload, 3)) == workloads.round_size(workload), workload
        assert workloads.rounds_for(workload, 1) * workloads.round_size(workload) >= workloads.MIN_REQUESTS


def test_every_round_has_the_same_request_mix():
    for workload in workloads.WORKLOADS:
        kinds = [sorted(key.split()[0] for key in round_keys(workload, seed)) for seed in (1, 2)]
        assert kinds[0] == kinds[1], workload


def test_modules_rounds_hold_the_same_share_of_acting_diagrams():
    def acting(seed, index):
        # Partition diagrams with at least m strands act non-trivially
        ctx = types.SimpleNamespace(deferred=[], twisted=[])
        workloads.make_round("modules", LIB, seed, index, ctx)
        return sum(diagramalg.rank(d) >= m for family, _, m, d in ctx.twisted if family == "Partition" and m)

    groups = sum(1 for family, _, lam, _ in workloads.MODULE_GROUPS if family == "Partition" and lam)
    for index in (0, 1):
        assert acting(1, index) == acting(2, index)
    assert acting(1, 0) + acting(1, 1) == groups


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.CHECKSUM
    assert calibrate.time_kernel() > 0


def test_local_scales_use_the_nearest_kernel_times():
    ref = calibrate.REFERENCE_S
    # kernel i is timed before request i; the host halves its speed after request 3
    times = [ref] * 4 + [2 * ref] * 5
    assert calibrate.local_scales(times, 1) == [1.0, 1.0, 1.0, ref / (1.5 * ref), 0.5, 0.5, 0.5, 0.5]
    # windows near either end are shifted inwards, never shortened
    assert calibrate.local_scales(times, 2)[0] == 1.0
    assert calibrate.local_scales(times, 2)[-1] == 0.5
    assert calibrate.speed_scale([ref, 4 * ref, ref / 2]) == 1.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.begin(0)              # request:      0 .. 10
    clock.now = 1.0
    tr.enter("a")            # a:            1 .. 9
    clock.now = 2.0
    tr.enter("b")            # b (in a):     2 .. 5
    clock.now = 3.0
    tr.enter("c")            # c (in b):     3 .. 4
    clock.now = 4.0
    tr.exit()
    clock.now = 5.0
    tr.exit()
    clock.now = 6.0
    tr.enter("b")            # b (in a):     6 .. 8, raises
    clock.now = 8.0
    tr.exit(failed=True)
    clock.now = 9.0
    tr.exit()
    clock.now = 10.0
    tr.end()
    assert tr.edges[(0, ROOT, "a")] == [1, 8.0, 3.0, 0]
    assert tr.edges[(0, "a", "b")] == [2, 5.0, 4.0, 1]
    assert tr.edges[(0, "b", "c")] == [1, 1.0, 1.0, 0]
    assert tr.requests[0] == (10.0, 2.0)
    totals = tr.totals()
    assert totals["b"] == [2, 5.0, 4.0, 1]
    # self times of a request tile its duration
    assert sum(t[2] for t in totals.values()) + tr.requests[0][1] == 10.0


def test_tracer_records_only_inside_requests():
    tr = Tracer(FakeClock())
    assert tr.call("x", lambda v: v + 1, (1,), {}) == 2
    assert tr.edges == {}


INSTALL_SCRIPT = r"""
import sys, types
sys.path[:0] = [%r, %r]
import diagramalg
from diagramalg import coeff, diagrams, irreps, characters
import importlib
from tracer import Tracer, install, cached_functions
original_concat = diagrams.concat
tr = Tracer()
install(tr)
assert coeff.concat is diagrams.concat is diagramalg.concat is not original_concat
assert irreps.conjugate is characters.conjugate
assert coeff.LaurentPoly.__rmul__ is coeff.LaurentPoly.__mul__
assert callable(importlib.import_module("diagramalg.partitions").divisors)
assert "symrep.sym_character" in cached_functions() and "irreps._conjugate" in cached_functions()
d = diagrams.generator("E", 1, 3)
a = coeff.Element.from_diagram(d, "Brauer", 2)
tr.begin(0)
a * a
tr.end()
totals = tr.totals()
assert totals["coeff.Element.mul"][0] == 1
assert totals["diagrams.concat"][0] == 1
assert tr.edges[(0, "coeff.Element.mul", "diagrams.concat")][0] == 1
print("ok")
"""


def test_install_rebinds_every_alias():
    # a fresh interpreter, so the wrappers never reach this test process
    script = INSTALL_SCRIPT % (HERE, SRC)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_closed_forms_match_the_library():
    for family in diagramalg.FAMILIES:
        for k in range(1, 5):
            assert workloads.algebra_dim(family, k) == diagramalg.algebra_dim(family, k), (family, k)
            for m in workloads.rank_set(family, k):
                expected = len(irreps.enumerate_symmetric(family, k, m))
                assert workloads.symmetric_count(family, k, m) == expected, (family, k, m)
            if family != "PlanarPartition":
                assert workloads.module_labels(family, k) == diagramalg.lambda_star_labels(family, k)
                assert workloads.class_labels(family, k) == characters.class_labels(family, k)


def test_random_diagrams_stay_in_their_family():
    rng = workloads.round_rng("test", 0, 0)
    for family in diagramalg.FAMILIES:
        for _ in range(50):
            d = diagramalg.Diagram(5, workloads.random_blocks(rng, family, 5, ranks=(2, 3)))
            assert diagramalg.in_family(d, family), (family, d.text())
            if family in ("Partition", "Rook"):
                assert 2 <= diagramalg.rank(d) <= 3, (family, d.text())


def test_table_parsers_and_determinant():
    table = characters.character_table("Partition", 3)
    for fmt, text in (("text", None), ("csv", table.to_csv(factor=True)), ("json", table.to_json(factor=True))):
        if text is None:
            fac = table.factor()
            text = table.to_text() + "\ns_block:\n" + "\n".join("  ".join(map(str, r)) for r in fac.s_block)
            text += "\n\nf_block:\n" + "\n".join("  ".join(map(str, r)) for r in fac.f_block) + "\n"
        rows, values, s_block, f_block = workloads.parse_table(text, fmt, True)
        assert rows == table.row_labels and values == table.values, fmt
        assert (s_block, f_block) == tuple(table.factor()), fmt
    assert workloads.determinant(table.values) == 12
    assert workloads.determinant([[0, 1], [1, 0]]) == -1
