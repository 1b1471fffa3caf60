"""Every CLI verb's success path, run in process on the shipped fixtures."""

import copy
import json
import random
import time

import pytest

from surgery_algebra import acceptance, cli, complexes, formations, serialize


def fixture(name):
    return json.loads(acceptance.fixture_path(name).read_text(encoding="utf-8"))


def null_sequence_file(key):
    """The first curated null sequence as the input of a complex verb: its complex, its
    automorphism, the trace of its first surgery, or that trace glued to its reversal."""
    fx = fixture("null-sequence-00.json")
    if key == "automorphism":
        return fx["automorphism"]
    c = serialize.complex_from_obj(fx["complex"])
    effect, trace = complexes.surgery_on_complex(c, serialize.surgery_from_obj(fx["surgeries"][0], source=c))
    c_obj, effect_obj, trace_obj = (serialize.complex_to_obj(c), serialize.complex_to_obj(effect),
                                    serialize.cobordism_to_obj(trace))
    return {
        "complex": c_obj,
        "cobordism": {"source": c_obj, "target": effect_obj, "cobordism": trace_obj},
        "union": {"left": c_obj, "middle": effect_obj, "right": c_obj, "first": trace_obj,
                  "second": serialize.cobordism_to_obj(complexes.reverse_cobordism(trace))},
    }[key]


def formation_of_the_automorphism():
    u = serialize.unitary_from_obj(fixture("null-sequence-00.json")["automorphism"])
    return serialize.formation_to_obj(formations.formation_from_automorphism(u))


TRIVIAL_GROUP = {"free_rank": 0, "name": "0", "torsion": []}

# verb -> (the options after the verb; the input: a fixture's file name, a key of
# null_sequence_file, an object, or None; a known answer the result must give)
VERB_CASES = {
    "form-info": ([], "e8.json", lambda r: (r["rank"], r["nonsingular"], r["even"]) == (8, True, True)),
    "witt": ([], "e8.json", lambda r: (r["class"], r["signature"]) == (1, 8)),
    "arf": ([], "arf.json", lambda r: r == {"arf": 1}),
    "signature": ([], "e8.json", lambda r: r == {"signature": 8}),
    "hyperbolic": (["--epsilon", "1", "--ell", "1"], None,
                   lambda r: r["form"] == fixture("hyperbolic-plus-1.json")),
    "split": ([], "hyperbolic-plus-1.json", lambda r: r["split"]["psi"] == [[0, 1], [0, 0]]),
    # killing e_1 in H(Z^2) leaves H(Z)
    "surgery-form": ([], {"form": fixture("hyperbolic-plus-2.json"), "x": [1, 0, 0, 0]},
                     lambda r: r["form"] == fixture("hyperbolic-plus-1.json")),
    "lagrangian-extend": ([], {"form": fixture("hyperbolic-plus-1.json"), "basis": [[1], [0]], "theta": [[0]]},
                          lambda r: r == {"isometry": [[1, 0], [0, 1]], "verified": True}),
    "reduce": ([], {"form": fixture("hyperbolic-plus-2.json"), "basis": [[1], [0], [0], [0]]},
               lambda r: r["residual"]["psi"] == [[0, 1], [0, 0]]),
    "plumb": ([], "e8-graph.json", lambda r: (r["form"], r["rank"]) == (fixture("e8.json"), 8)),
    "boundary": ([], "e8.json", lambda r: (r["h_n"], r["is_sphere"]) == (TRIVIAL_GROUP, True)),
    "sphere": ([], "e8.json", lambda r: r == {"is_sphere": True, "class_mod_28": 1}),
    "milnor": (["--ell", "1"], None, lambda r: r == {"class_mod_28": 0, "exotic": False}),
    "complex-validate": ([], "complex", lambda r: r == {"valid": True, "violations": []}),
    "complex-homology": ([], "complex", lambda r: r == {"h_n": TRIVIAL_GROUP, "h_n_plus_1_rank": 0}),
    # the complex of an automorphism and the automorphism give one formation
    "formation": ([], "complex", lambda r: r == {"formation": formation_of_the_automorphism()}),
    "formation-from-aut": ([], "automorphism", lambda r: r == {"formation": formation_of_the_automorphism()}),
    "surgery-complex": ([], "null-sequence-00.json", lambda r: (r["traces_valid"], r["contractible"]) == (True, True)),
    "cobordism-validate": ([], "cobordism", lambda r: r == {"valid": True}),
    "union": ([], "union", lambda r: r["valid"] is True),
    "suite": ([], None, lambda r: r["passed"] and [c["criterion"] for c in r["criteria"]] == list(range(1, 13))),
}


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_every_verb_answers_a_known_case(tmp_path, verb):
    """A verb added without a case here fails, so each verb's success path runs in tier-1."""
    options, source, known = VERB_CASES[verb]
    out = tmp_path / "report.json"
    argv = [verb, *options, "--out", str(out)]
    if isinstance(source, str) and source.endswith(".json"):
        argv += ["--in", str(acceptance.fixture_path(source))]
    elif source is not None:
        src = tmp_path / "input.json"
        src.write_text(json.dumps(null_sequence_file(source) if isinstance(source, str) else source),
                       encoding="utf-8")
        argv += ["--in", str(src)]
    status = cli.main(argv)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert (status, "error" in report) == (0, False), report
    assert known(report["result"])


def test_a_lagrangian_file_with_a_wrong_theta_is_refused(tmp_path):
    # over H_-(Z), theta - eps*theta' = 2 theta must be e_1'·psi·e_1 = 0
    src, out = tmp_path / "input.json", tmp_path / "report.json"
    src.write_text(json.dumps({"form": fixture("hyperbolic-minus-1.json"), "basis": [[1], [0]], "theta": [[1]]}),
                   encoding="utf-8")
    assert cli.main(["lagrangian-extend", "--in", str(src), "--out", str(out)]) == 1
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["error"] == "theta is not a hessian witness: i'psi i != theta - eps*theta'"


# what a mutation writes in place of a value: every JSON type, and ints past any cap
MUTANTS = [None, True, False, 1.5, -0.0, "x", "", [], [0], [[]], {}, {"origin": 0}, 10 ** 30, -10 ** 30, 0, 2]


def nested_positions(obj, path=()):
    """The path of every value below the top of obj, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from nested_positions(value, path + (key,))


def mutated(rng, obj):
    """A copy of obj with one or two nested values replaced by a mutant, or their keys deleted."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.choice((1, 2))):
        paths = list(nested_positions(obj))
        if not paths:
            break
        path = rng.choice(paths)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(MUTANTS))
    return obj


def verb_input(verb):
    source = VERB_CASES[verb][1]
    if isinstance(source, str):
        return fixture(source) if source.endswith(".json") else null_sequence_file(source)
    return source


@pytest.mark.parametrize("verb", sorted(cli.NEEDS_INPUT))
def test_no_value_at_any_depth_ends_in_a_traceback(tmp_path, verb):
    """Seeded mutations of the verb's own input and of the shipped fixtures, one or two values
    deep inside the file: each call exits 0, 1 or 2, a refusal names its kind and error, and
    no call takes a second of CPU."""
    rng = random.Random(f"depth-{verb}")
    shipped = sorted(acceptance.fixture_names(""))
    own = verb_input(verb)
    src, out = tmp_path / "input.json", tmp_path / "report.json"
    for _ in range(30):
        base = own if rng.random() < 0.75 else fixture(rng.choice(shipped))
        obj = mutated(rng, base)
        src.write_text(json.dumps(obj), encoding="utf-8")
        start = time.process_time()
        status = cli.main([verb, "--in", str(src), "--out", str(out)])
        assert time.process_time() - start < 1.0, obj
        report = json.loads(out.read_text(encoding="utf-8"))
        assert status in (0, 1, 2), obj
        assert status == 0 or {"kind", "error"} <= report.keys(), obj
