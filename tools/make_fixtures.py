"""Regenerate the JSON fixtures shipped inside the package.

Everything is seeded and deterministic.  The random automorphism words and
surgery matrices are drawn by ``surgery_algebra.generators``, whose draw
order is fixed, so the fixtures regenerate byte for byte.  The curated
null-surgery sequences are found by a bounded search at generation time;
the shipped artifact only ever verifies them.  Run from the repository root:

    python3 tools/make_fixtures.py           # rewrite the shipped fixtures
    python3 tools/make_fixtures.py --check   # regenerate into a temporary
                                             # directory and compare bytes

``--check`` writes nothing in the repository; it exits 1 when a fixture
differs, is missing, or is shipped without being regenerated.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from surgery_algebra import (  # noqa: E402
    complexes as cx,
    formations as fm,
    forms,
    generators as gen,
    matrices as mx,
    plumbing as pl,
    rings,
    serialize as sz,
)
from surgery_algebra.errors import DomainError  # noqa: E402

Z = rings.integers()
FIXDIR = os.path.join(os.path.dirname(__file__), "..", "src", "surgery_algebra", "fixtures")

E8_ROWS = [
    [2, 0, 0, 1, 0, 0, 0, 0],
    [0, 2, 1, 0, 0, 0, 0, 0],
    [0, 1, 2, 1, 0, 0, 0, 0],
    [1, 0, 1, 2, 1, 0, 0, 0],
    [0, 0, 0, 1, 2, 1, 0, 0],
    [0, 0, 0, 0, 1, 2, 1, 0],
    [0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 1, 2],
]


def write(outdir: str, name: str, obj) -> None:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sz.dumps_canonical(obj))
    print("wrote", os.path.relpath(path))


def search_surgery(rng: random.Random, c: cx.OddComplex, contractible: bool, budget: int):
    """Bounded search for admissible surgery data whose trace validates and whose effect is
    contractible or not, as asked; contractible effects are searched with wider data."""
    k = c.rank_top
    sizes, bound = ([max(1, k - 1), k, k, k + 1, k + 2], 2) if contractible else ([1, k], 1)
    for _ in range(budget):
        s = gen.surgery_data(rng, k, sizes, bound)
        try:  # admissibility is tested once, by surgery_effect, and draws nothing
            effect, cob = cx.surgery_on_complex(c, s)
        except DomainError:
            continue
        if cx.validate_cobordism(c, effect, cob) and cx.is_contractible(effect) == contractible:
            return s
    return None


def make_null_sequences(outdir: str, count: int = 20):
    made = 0
    seed = 0
    while made < count:
        seed += 1
        rng = random.Random(500 + seed)
        parity = made % 2
        eps = 1 if parity == 0 else -1
        k = 1 + made % 3
        u = gen.word(rng, eps, k, rng.randint(3, 7), steps=2)
        phi = fm.formation_from_automorphism(u)
        c = fm.formation_to_complex(phi)
        steps = []
        current = c
        if made % 5 == 4:
            pre = search_surgery(rng, current, False, 2000)
            if pre is None:
                continue
            steps.append(pre)
            current, _ = cx.surgery_on_complex(current, pre)
        s = search_surgery(rng, current, True, 6000)
        if s is None:
            continue
        steps.append(s)
        # verify the whole sequence end to end before freezing it
        check = c
        for st in steps:
            effect, cob = cx.surgery_on_complex(check, st)
            assert cx.validate_cobordism(check, effect, cob)
            check = effect
        assert cx.is_contractible(check)
        obj = {
            "complex": sz.complex_to_obj(c),
            "automorphism": sz.unitary_to_obj(u),
            "surgeries": [sz.surgery_to_obj(st) for st in steps],
        }
        write(outdir, f"null-sequence-{made:02d}.json", obj)
        made += 1


def generate(outdir: str) -> None:
    e8 = forms.quadratic_form(Z, 1, E8_ROWS, [1] * 8)
    write(outdir, "e8.json", sz.form_to_obj(e8))

    arf = forms.quadratic_form(Z, -1, [[0, 1], [-1, 0]], [1, 1])
    write(outdir, "arf.json", sz.form_to_obj(arf))

    for k in (1, 2):
        write(outdir, f"hyperbolic-plus-{k}.json", sz.form_to_obj(forms.hyperbolic_quadratic(Z, 1, k)))
        write(outdir, f"hyperbolic-minus-{k}.json", sz.form_to_obj(forms.hyperbolic_quadratic(Z, -1, k)))

    write(outdir, "e8-graph.json", sz.graph_to_obj(pl.e8_graph()))
    write(outdir, "empty-graph.json", sz.graph_to_obj(pl.plumbing_graph(0, (), ())))
    write(outdir, "i-graph-untwisted.json", sz.graph_to_obj(pl.plumbing_graph(1, (0, 0), ((0, 1),))))
    write(outdir, "i-graph-twisted.json", sz.graph_to_obj(pl.plumbing_graph(1, (1, 1), ((0, 1),))))

    # surgeries on the empty complex: the sphere stays a product for
    # delta = 0 and becomes the unit tangent bundle for delta = 1
    for parity in (0, 1):
        zero = cx.zero_complex(Z, parity)
        for delta in (0, 1):
            s = cx.SurgeryData(mx.zero_matrix(Z, 1, 0), mx.matrix(Z, [[delta]]))
            effect, cob = cx.surgery_on_complex(zero, s)
            assert cx.validate_cobordism(zero, effect, cob)
            obj = {
                "complex": sz.complex_to_obj(zero),
                "surgeries": [sz.surgery_to_obj(s)],
                "effect": sz.complex_to_obj(effect),
            }
            write(outdir, f"zero-surgery-p{parity}-d{delta}.json", obj)

    make_null_sequences(outdir)


def compare(new_dir: str, shipped_dir: str) -> int:
    """Report every fixture that is not byte-identical; 1 if any, else 0."""
    made = set(os.listdir(new_dir))
    shipped = {n for n in os.listdir(shipped_dir) if n.endswith(".json")}
    bad = 0
    for name in sorted(made | shipped):
        if name not in shipped:
            print("missing from the shipped fixtures:", name)
        elif name not in made:
            print("shipped but not regenerated:", name)
        else:
            with open(os.path.join(new_dir, name), "rb") as a, \
                    open(os.path.join(shipped_dir, name), "rb") as b:
                if a.read() == b.read():
                    continue
            print("differs:", name)
        bad += 1
    print(f"{len(made | shipped) - bad} of {len(made | shipped)} fixtures byte-identical")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the shipped JSON fixtures.")
    parser.add_argument("--check", action="store_true",
                        help="regenerate into a temporary directory and compare bytes "
                             "with the shipped fixtures")
    args = parser.parse_args(argv)
    if not args.check:
        os.makedirs(FIXDIR, exist_ok=True)
        generate(FIXDIR)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        generate(tmp)
        return compare(tmp, FIXDIR)


if __name__ == "__main__":
    sys.exit(main())
