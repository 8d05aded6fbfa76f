"""Every output pinned byte for byte, in one table of (name, producer,
sha256).  A CLI pin runs ``cli.run`` on each of its argv lists in turn, as
separate ``python -m diagramalg`` commands would, and joins what they
print; a library pin prints what its program prints.  A digest changes
only with a CHANGES.md line saying why the bytes changed."""

import hashlib
import io
import pathlib
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from diagramalg import cli, clear_caches
from diagramalg.characters import format_partition
from diagramalg.coeff import Element, LaurentPoly
from diagramalg.diagrams import (
    FAMILIES,
    Diagram,
    algebra_dim,
    concat,
    enumerate_basis,
    family_generators,
    perm_diagram,
)
from diagramalg.irreps import conjugate, enumerate_sspt, enumerate_symmetric
from diagramalg.partitions import lambda_star_labels, partitions, rank_set
from diagramalg.symrep import natural_columns

WORKFLOW = pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"

# the nine families as the CLI spells them
SPELLINGS = [family.lower() for family in FAMILIES]


@pytest.fixture(autouse=True)
def _default_cap(monkeypatch):
    monkeypatch.delenv("DIAGRAMALG_CAP", raising=False)


@pytest.fixture(autouse=True, scope="module")
def _cold_caches_after():
    # the pins fill caches no later test reads, the 94,828 tableaux of
    # Partition k=9 on [1] among them
    yield
    clear_caches()


def _cli(argvs):
    """What cli.run prints on each argv in turn, each exiting 0 with
    nothing on stderr."""
    out = io.StringIO()
    for argv in argvs:
        err = io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def _printed(program):
    """A producer of what program prints."""
    def produce():
        out = io.StringIO()
        with redirect_stdout(out):
            program()
        return out.getvalue()
    return produce


def basis_k5(fmt):
    # k=5 is the largest Partition listing the default cap admits (115,975
    # diagrams); each text listing writes algebra_dim lines
    texts = []
    for family in SPELLINGS:
        text = _cli([["basis", "--family", family, "--k", "5", "--format", fmt]])
        if fmt == "text":
            assert text.count("\n") == algebra_dim(family, 5), family
        texts.append(text)
    return "".join(texts)


def symdiag_k7(fmt):
    return _cli(
        ["symdiag", "--family", family, "--k", "7", "--m", str(m), "--format", fmt]
        for family in SPELLINGS
        for m in rank_set(family, 7)
    )


def sspt_k5():
    return _cli(
        ["sspt", "--family", family, "--k", "5",
         "--lambda-star", format_partition(lam), "--format", fmt]
        for family in SPELLINGS
        for lam in lambda_star_labels(family, 5)
        for fmt in ("text", "json")
    )


def irrep_k4():
    # each family's last generator on its largest module, in both bases
    argvs = []
    for family in SPELLINGS:
        lam = max(
            lambda_star_labels(family, 4),
            key=lambda lam: len(enumerate_sspt(family, 4, lam)),
        )
        d = family_generators(family, 4)[-1].text()
        for basis in ("twisted", "tableau"):
            for flags in (["--format", "text"], ["--format", "json"],
                          ["--format", "json", "--n", "7/2"]):
                argvs.append(
                    ["irrep", "--family", family, "--k", "4",
                     "--lambda-star", format_partition(lam), "--d", d,
                     "--basis", basis, *flags]
                )
    return _cli(argvs)


def irrep_k5():
    # the tableau action at k=5 on every Partition label, for the last
    # generator and a permutation
    return _cli(
        ["irrep", "--family", "partition", "--k", "5",
         "--lambda-star", format_partition(lam), "--d", d.text(),
         "--basis", "tableau", "--format", fmt]
        for d in (family_generators("Partition", 5)[-1],
                  perm_diagram((2, 3, 1, 5, 4)))
        for lam in lambda_star_labels("partition", 5)
        for fmt in ("text", "json")
    )


def products():
    # seeded products of 30-term elements (fewer where the basis is
    # smaller) on basis diagrams of every family at k=3 and k=4, with int
    # and Fraction coefficients, printed symbolically and at n = 7/2
    rng = random.Random(29)
    def element(family, k, basis, rational):
        combo = {}
        for d in rng.sample(basis, min(30, len(basis))):
            exps = rng.sample(range(-2, 3), rng.randint(1, 2))
            combo[d] = LaurentPoly({e: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) if rational else rng.randint(-9, 9) for e in exps})
        return Element(k, family, combo)
    for family in FAMILIES:
        for k in (3, 4):
            basis = enumerate_basis(family, k)
            for ra, rb in ((False, False), (True, False), (False, True), (True, True)):
                p = element(family, k, basis, ra) * element(family, k, basis, rb)
                print(family, k, p)
                print(p.evaluate(Fraction(7, 2)))


def stacks():
    # the stacking kernel past the sizes tier-1 compares with its
    # references: 2,000 concat pairs each at k = 6, 7 and 8 on seeded set
    # partitions (random restricted growth strings), then 2,000 seeded
    # conjugations at Partition k=7 on symmetric diagrams of rank 0 to 3
    rng = random.Random(37)
    def rgs_diagram(k):
        blocks, top = [], 0
        for v in range(1, 2 * k + 1):
            label = rng.randrange(top + 1)
            if label == top:
                blocks.append([])
                top += 1
            blocks[label].append(v)
        return Diagram(k, blocks)
    for k in (6, 7, 8):
        for _ in range(2000):
            p = concat(rgs_diagram(k), rgs_diagram(k))
            print(k, p.product.text(), p.deleted)
    ws = [w for m in range(4) for w in enumerate_symmetric('Partition', 7, m)]
    for _ in range(2000):
        res = conjugate(rgs_diagram(7), rng.choice(ws))
        print(res.w_prime.text(), res.m_prime, res.deleted, res.twist)


def natural():
    # Young's natural matrices past the sizes tier-1 reaches: every shape
    # of m = 6, 7 and 8 under each adjacent transposition and the long cycle
    for m in (6, 7, 8):
        ident = list(range(1, m + 1))
        sigmas = [tuple(ident[:i] + [i + 2, i + 1] + ident[i + 2:]) for i in range(m - 1)]
        sigmas.append(tuple(ident[1:] + [1]))
        for lam in partitions(m):
            for sigma in sigmas:
                print(lam, sigma, natural_columns(sigma, lam))


def _run(*argv):
    """A producer of what one CLI command prints."""
    return lambda: _cli([list(argv)])


def _table(k, fmt):
    return _run("table", "--family", "partition", "--k", str(k), "--format", fmt)


PINS = [
    ("products", _printed(products),
     "dfa83df54d3a258d5dff7c92fcd4ceffcd120fb76dc5e657c2f0cd70ee539855"),
    ("stacks", _printed(stacks),
     "e67769be85a3b45a972015a1814223c54fde535608e385afc554fabb7b81d23f"),
    ("natural-m6-m8", _printed(natural),
     "1abe515015733e5f0fc6d9e7974adf53fecc5ae79dbeace9c58b8ba690d128c4"),
    ("basis-k5-text", lambda: basis_k5("text"),
     "56ed3f6b8a75da6a31bc5afff813e31a0c623a38929633041c84388f159c29d4"),
    ("basis-k5-json", lambda: basis_k5("json"),
     "ea31c14ae228fc479fb2364c87b04e1b0fe18e4cfc3684c73b0ba3f584e154b5"),
    ("symdiag-k7-text", lambda: symdiag_k7("text"),
     "b98ed569adb887be3fcddc5a5c776d6cb0c6afec0f67db4c0e4b5f59c0c939d0"),
    ("symdiag-k7-json", lambda: symdiag_k7("json"),
     "d94426ea07f49f57e4a3f68b98600b8a67836067167ef2c5cd44acadd4438fdf"),
    ("sspt-k5", sspt_k5,
     "9c7d083289c522eecb4efdcb665b2d85e501d00344ddec7e01e16e86069b5362"),
    ("irrep-k4", irrep_k4,
     "5ad9c9542bbc66e4a2b712e21299c5962749e80c98826adfb55b865a77e173c3"),
    ("irrep-k5-tableau", irrep_k5,
     "3cba65de62b0e9d2c4224f65573209742ca6d703b6b3866a12f253288e9580bd"),
    # a bare verify runs every suite but the named-only ones at its default k
    ("verify", _run("verify"),
     "3db0eb2fede726dea8fa63593d72995908502d04d681fa8e29f052a473a3844a"),
    # the 508-row Partition table at k=14 and the 915-row one at k=16
    ("table-k14-text", _table(14, "text"),
     "23ac8dcfac455d197898ed4016a3dd1873b45350fe50b40d971e9973e3fb618a"),
    ("table-k14-csv", _table(14, "csv"),
     "6b299db604dbf32b6307e85c0a09940f2c8bf4978222b6f5968b814bc8be0b5b"),
    ("table-k16-text", _table(16, "text"),
     "164b457559da17f02b592f46de5c61ba701b88b44b079e42da1d3d1a2f41fbf3"),
    ("table-k16-csv", _table(16, "csv"),
     "39645b5d76c34a1176b5e52e5f2055c658af0902a8e40657d9ef5b9535fe31d8"),
    # listings past the k=5 pins: RookBrauer k=6 (140,152 lines), the 94,828
    # tableaux of Partition k=9 on [1], Motzkin k=7, PlanarPartition k=5 and
    # TemperleyLieb k=12 at rank 2
    ("basis-rookbrauer-k6", _run("basis", "--family", "rookbrauer", "--k", "6"),
     "b2ef41d192ba4650dc1bdfd2eee0c5d3ec8f75bf9926609c8e41eb56ce367ce2"),
    ("sspt-partition-k9",
     _run("sspt", "--family", "partition", "--k", "9", "--lambda-star", "[1]"),
     "b0562d01eb9ce049bcca25f01b7424dd677356365e90afea25f1f3c34327c016"),
    ("basis-motzkin-k7", _run("basis", "--family", "motzkin", "--k", "7"),
     "9b0b8fc99b9f52b59b9291619831b70248e2a1ef422f97cc8d0a6f22edf79a6a"),
    ("basis-planarpartition-k5",
     _run("basis", "--family", "planarpartition", "--k", "5"),
     "516c70defddf522ad85c6ccaacb5ebd58b3a994afd605247e482016a3c60504b"),
    ("symdiag-temperleylieb-k12-m2",
     _run("symdiag", "--family", "temperleylieb", "--k", "12", "--m", "2"),
     "10d5aab41186033dd3f80c4ef3d94af418b64698ad13c2ddf9be1077bbff60cc"),
]


@pytest.mark.parametrize(
    "produce, digest", [pytest.param(p, d, id=name) for name, p, d in PINS]
)
def test_pinned_bytes(produce, digest):
    text = produce()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_the_workflow_pins_no_bytes():
    # the pins above are the only home of a digest
    workflow = WORKFLOW.read_text(encoding="utf-8")
    assert "sha256sum" not in workflow
    assert re.search(r"\b[0-9a-f]{64}\b", workflow) is None
