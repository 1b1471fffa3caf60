"""The command-line front end: exit codes and reports, run in process and once as python -m."""

import builtins
import hashlib
import json
import linecache
import os
import random
import subprocess
import sys
import time

import pytest

import surgery_algebra
from surgery_algebra import _intlat, acceptance, cli, formations, forms, generators, matrices, rings, serialize, witt

from conftest import random_split_and_transport, random_unimodular

# sha256 of the shipped E8 fixture; the fixtures regenerate byte for byte
E8_SHA256 = "7f27ba30027e05a9f66f67d5f50171f41e1ee1e6065fc19f7fb851572a155ea9"


def e8_path():
    return str(acceptance.fixture_path("e8.json"))


def run(argv):
    """(exit status, report) of one in-process CLI call writing to --out."""
    status = cli.main(argv)
    with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
        return status, json.load(fh)


def test_form_info_on_the_e8_fixture(tmp_path):
    out = tmp_path / "report.json"
    status, report = run(["form-info", "--in", e8_path(), "--out", str(out)])
    assert status == 0
    assert report["verb"] == "form-info"
    assert report["result"] == {"ring": {"ring": "Z"}, "epsilon": 1, "rank": 8,
                                "nonsingular": True, "even": True}
    assert report["provenance"]["inputs"] == [e8_path()]


@pytest.mark.parametrize("content", [
    "{not json",
    json.dumps({"ring": {"ring": "quaternion"}, "epsilon": 1, "lambda": [[2]], "mu": [1]}),
    None,
], ids=["malformed-json", "unknown-ring-kind", "missing-file"])
def test_unreadable_input_exits_with_status_2(tmp_path, content):
    src = tmp_path / "input.json"
    if content is not None:
        src.write_text(content, encoding="utf-8")
    out = tmp_path / "report.json"
    status, report = run(["form-info", "--in", str(src), "--out", str(out)])
    assert status == 2
    assert report["kind"] == "schema"
    assert "result" not in report


def test_boundary_of_a_unimodular_form_is_one_determinant(tmp_path, monkeypatch):
    calls = []
    for name in ("bareiss", "smith_normal_form"):
        real = getattr(_intlat, name)
        monkeypatch.setattr(_intlat, name, lambda a, *rest, name=name, real=real:
                            calls.append(name) or real(a, *rest))
    status, report = run(["boundary", "--in", e8_path(), "--out", str(tmp_path / "report.json")])
    assert status == 0 and calls == ["bareiss"]
    assert report["result"] == {"h_n": {"free_rank": 0, "torsion": [], "name": "0"}, "h_n_plus_1_rank": 0,
                                "is_sphere": True}
    src = tmp_path / "a2.json"
    src.write_text(json.dumps({"ring": {"ring": "Z"}, "epsilon": 1, "mu": [1, 1],
                               "lambda": [[2, 1], [1, 2]]}), encoding="utf-8")
    status, report = run(["boundary", "--in", str(src), "--out", str(tmp_path / "a2-report.json")])
    assert status == 0 and calls == ["bareiss", "bareiss", "smith_normal_form"]
    assert report["result"] == {"h_n": {"free_rank": 0, "torsion": [3], "name": "Z/3"}, "h_n_plus_1_rank": 0,
                                "is_sphere": False}


def count_kernels(monkeypatch):
    """(kernel, rows) of each call into the Bareiss, Smith and Hermite kernels, and of each signature pass."""
    calls = []
    for name in ("bareiss", "smith_normal_form", "hermite_column_basis"):
        real = getattr(_intlat, name)
        monkeypatch.setattr(_intlat, name, lambda a, *rest, name=name, real=real, **kw:
                            calls.append((name, len(a))) or real(a, *rest, **kw))
    real = witt.signature_and_det
    monkeypatch.setattr(witt, "signature_and_det", lambda q: calls.append(("signature pass", q.rank)) or real(q))
    return calls


def test_the_lagrangian_extension_verb_checks_each_fact_once(tmp_path, monkeypatch):
    rng = random.Random(12)
    s, p = random_split_and_transport(rng, rings.Z, -1, 8)
    q = forms.split_to_quadratic(s)
    basis = matrices.inverse(p).submatrix(range(16), range(8)).mul(random_unimodular(rng, rings.Z, 8))
    src = tmp_path / "lagrangian.json"
    src.write_text(json.dumps({"form": serialize.form_to_obj(q), "basis": basis.to_int_grid()}), encoding="utf-8")
    calls = count_kernels(monkeypatch)
    status, report = run(["lagrangian-extend", "--in", str(src), "--out", str(tmp_path / "report.json")])
    # the splitting's solve alone: the witness certifies lambda and the lagrangian, so no determinant
    assert status == 0 and report["result"]["verified"] is True
    assert sorted(name for name, _ in calls) == ["hermite_column_basis", "smith_normal_form"]
    f = matrices.int_matrix(report["result"]["isometry"])
    assert f.star().mul(q.lam).mul(f) == forms.hyperbolic_quadratic(rings.Z, -1, 8).lam


def test_the_formation_verb_decides_triviality_without_a_hermite_form(tmp_path, monkeypatch):
    rng = random.Random(13)
    lam = generators.hessian_corner(rng, rings.Z, 4, 1)
    mu = [rings.symmetrize_preimage(lam.entry(i, i), -1) for i in range(4)]
    phi = formations.boundary_formation(forms.quadratic_form(rings.Z, -1, lam.scale_int(2), mu))
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(serialize.formation_to_obj(phi)), encoding="utf-8")
    calls = count_kernels(monkeypatch)
    status, report = run(["formation", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert status == 0 and report["result"]["valid"] and not report["result"]["trivial"]
    # the form's determinant, the quotient's Smith form and the 4 x 4 pairing's determinant
    assert [c for c in calls if c[0] != "smith_normal_form"] == [("bareiss", 8), ("bareiss", 4)]


def test_the_sphere_verb_runs_one_elimination(tmp_path, monkeypatch):
    calls = count_kernels(monkeypatch)
    status, report = run(["sphere", "--in", e8_path(), "--out", str(tmp_path / "report.json")])
    assert (status, report["result"], calls) == (0, {"is_sphere": True, "class_mod_28": 1}, [("signature pass", 8)])
    calls.clear()
    arf = str(acceptance.fixture_path("arf.json"))
    status, report = run(["sphere", "--in", arf, "--out", str(tmp_path / "report.json")])
    assert (status, report["result"], calls) == (0, {"is_sphere": True}, [("bareiss", 2)])
    calls.clear()  # det lambda = -1 also bounds a sphere
    plus = str(acceptance.fixture_path("hyperbolic-plus-1.json"))
    status, report = run(["sphere", "--in", plus, "--out", str(tmp_path / "report.json")])
    assert (status, report["result"], calls) == (0, {"is_sphere": True, "class_mod_28": 0}, [("signature pass", 2)])


def test_the_symmetric_witt_verb_runs_one_signature_pass(tmp_path, monkeypatch):
    calls = []
    real = witt.signature_and_det
    monkeypatch.setattr(witt, "signature_and_det", lambda q: calls.append(q.rank) or real(q))
    status, report = run(["witt", "--in", e8_path(), "--out", str(tmp_path / "report.json")])
    assert status == 0 and calls == [8]
    assert report["result"] == {"epsilon": 1, "class": 1, "signature": 8}


def test_calls_in_one_process_give_independent_reports(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    s1, r1 = run(["form-info", "--in", e8_path(), "--out", str(first)])
    s2, r2 = run(["milnor", "--ell", "3", "--out", str(second)])
    assert (s1, s2) == (0, 0)
    assert r1["verb"] == "form-info" and r1["result"]["rank"] == 8
    assert r2["verb"] == "milnor" and r2["result"] == {"class_mod_28": 8, "exotic": True}
    assert r2["provenance"]["inputs"] == []
    # the first report is untouched by the second call, and a repeat matches it
    s3, r3 = run(["form-info", "--in", e8_path(), "--out", str(tmp_path / "third.json")])
    assert s3 == 0 and json.loads(first.read_text(encoding="utf-8")) == r1
    assert {k: v for k, v in r3.items() if k != "seconds"} == \
        {k: v for k, v in r1.items() if k != "seconds"}


def test_a_missing_required_option_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["form-info"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb, form", [
    ("witt", {"epsilon": 1, "lambda": [[2]], "mu": [1]}),
    ("signature", {"ring": {"ring": "laurent"}, "epsilon": 1,
                   "lambda": [[{"origin": 0, "coeffs": []}, {"origin": 0, "coeffs": [1]}],
                              [{"origin": 0, "coeffs": [1]}, {"origin": 0, "coeffs": []}]],
                   "mu": [{"origin": 0, "coeffs": []}, {"origin": 0, "coeffs": []}]}),
], ids=["witt-of-a-singular-form", "signature-over-laurent"])
def test_an_undefined_operation_exits_with_status_1(tmp_path, verb, form):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(form), encoding="utf-8")
    status, report = run([verb, "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert status == 1
    assert report["kind"] == "domain"
    assert "result" not in report


def test_provenance_carries_input_digests_and_the_package_version(tmp_path):
    status, report = run(["form-info", "--in", e8_path(), "--out", str(tmp_path / "e8.json")])
    assert status == 0
    with open(e8_path(), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == E8_SHA256
    assert report["provenance"]["inputs"] == [e8_path()]
    assert report["provenance"]["sha256"] == [E8_SHA256]
    assert report["provenance"]["version"] == surgery_algebra.__version__ == "0.1.0"

    missing = str(tmp_path / "missing.json")
    status, report = run(["form-info", "--in", missing, "--out", str(tmp_path / "missing-report.json")])
    assert status == 2
    assert report["provenance"]["inputs"] == [missing]
    assert report["provenance"]["sha256"] == [None]

    status, report = run(["milnor", "--ell", "3", "--out", str(tmp_path / "milnor.json")])
    assert status == 0
    assert report["provenance"]["sha256"] == [] and report["provenance"]["version"] == "0.1.0"


@pytest.mark.parametrize("verb", ["milnor", "form-info"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_out_path_that_cannot_be_written_is_reported_on_stdout(tmp_path, capsys, verb, target):
    out = tmp_path / "no-such-directory" / "report.json" if target == "missing-directory" else tmp_path
    args = ["milnor", "--ell", "3"] if verb == "milnor" else ["form-info", "--in", e8_path()]
    status = cli.main(args + ["--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert (status, report["verb"], report["kind"]) == (2, verb, "schema")
    assert report["where"].startswith("surgery_algebra.cli:main:")
    assert report["error"].startswith(f"cannot write the report to {out}: ") and "result" not in report
    assert not (tmp_path / "no-such-directory").exists()


@pytest.mark.parametrize("content, message", [
    (b'{"epsilon": 1, "lambda": [[2]], "mu": ["\xff"]}', "not valid JSON ('utf-8' codec can't decode"),
    (b"[" * 400_000, "not valid JSON (maximum recursion depth exceeded"),
    pytest.param(b'{"epsilon": 1, "lambda": [[' + b"7" * 5000 + b']], "mu": [1]}', "not valid JSON (Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python converts ints of any length")),
    (b'\xef\xbb\xbf{"epsilon": 1, "lambda": [[2]], "mu": [1]}',
     "not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0))"),
], ids=["not-utf-8", "nested-brackets", "over-long-int", "byte-order-mark"])
def test_bad_input_bytes_are_schema_errors(tmp_path, content, message):
    src = tmp_path / "input.json"
    src.write_bytes(content)
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert (status, report["kind"]) == (2, "schema")
    assert report["error"].startswith(f"{src}: {message}")
    assert report["where"].startswith("surgery_algebra.serialize:read_json:")
    assert report["provenance"]["sha256"] == [hashlib.sha256(content).hexdigest()]


def test_each_input_is_opened_once_and_the_parsed_bytes_are_hashed(tmp_path, monkeypatch):
    z = rings.integers()
    phi = formations.boundary_formation(forms.quadratic_form(z, -1, [[0, 1], [-1, 0]], [1, 1]))
    src, witness = tmp_path / "phi.json", tmp_path / "witness.json"
    src.write_text(json.dumps(serialize.formation_to_obj(phi)), encoding="utf-8")
    dual = matrices.vstack(matrices.zero_matrix(z, 2, 2), matrices.identity_matrix(z, 2))
    witness.write_text(json.dumps(serialize.matrix_to_obj(dual)), encoding="utf-8")
    opened = []
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda f, *a, **k: opened.append(str(f)) or real_open(f, *a, **k))
    status, report = run(["formation", "--in", str(src), "--witness", str(witness),
                          "--out", str(tmp_path / "report.json")])
    assert status == 0 and report["result"]["valid"]
    assert opened.count(str(src)) == 1 and opened.count(str(witness)) == 1
    assert report["provenance"]["sha256"] == [hashlib.sha256(p.read_bytes()).hexdigest()
                                              for p in (src, witness)]


@pytest.mark.parametrize("verb, form, status, kind, module, function, raised", [
    ("form-info", {"ring": {"ring": "quaternion"}, "epsilon": 1, "lambda": [[2]], "mu": [1]},
     2, "schema", "surgery_algebra.serialize", "ring_from_obj", "unknown ring kind"),
    ("witt", {"epsilon": 1, "lambda": [[2]], "mu": [1]},
     1, "domain", "surgery_algebra.witt", "witt_class", "witt class needs a nonsingular form"),
], ids=["schema-error", "domain-error"])
def test_an_error_report_names_the_innermost_package_frame(tmp_path, verb, form, status, kind,
                                                           module, function, raised):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(form), encoding="utf-8")
    code, report = run([verb, "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert (code, report["kind"]) == (status, kind)
    where_module, where_function, line = report["where"].split(":")
    assert (where_module, where_function) == (module, function)
    source = linecache.getline(sys.modules[module].__file__, int(line))
    assert "raise" in source and raised in source


def test_an_error_report_names_the_package_frame_under_python_dash_m():
    """Run as python -m, the CLI's frames are named "__main__"; the report names the module all the same."""
    src = os.path.dirname(os.path.dirname(surgery_algebra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "surgery_algebra.cli", "hyperbolic", "--epsilon", "1", "--ell", "-1"],
                          capture_output=True, text=True, env=env, timeout=60, check=False)
    report = json.loads(done.stdout)
    assert (done.returncode, report["kind"]) == (2, "schema")
    assert report["where"].startswith("surgery_algebra.cli:verb_hyperbolic:")


@pytest.mark.parametrize("eps", [0, 2, -3])
def test_an_automorphism_file_with_another_epsilon_still_exits_with_status_2(tmp_path, eps):
    """The automorphism class now calls such an epsilon a DomainError, but the reader refuses
    it first, as a SchemaError; and it reads every block over the file's one ring."""
    src = tmp_path / "aut.json"
    src.write_text(json.dumps({"epsilon": eps, "alpha": [[1]], "beta": [[0]], "gamma": [[0]], "delta": [[1]]}),
                   encoding="utf-8")
    code, report = run(["formation-from-aut", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert (code, report["kind"], report["error"]) == (2, "schema", f"epsilon must be +1 or -1, got {eps}")
    assert report["where"].startswith("surgery_algebra.serialize:_require_sign:")


def laurent_form(mu_origin):
    """A 1x1 Laurent form file with lambda = 2 and mu = z^mu_origin."""
    return {"ring": {"ring": "laurent"}, "epsilon": 1, "lambda": [[{"origin": 0, "coeffs": [2]}]],
            "mu": [{"origin": mu_origin, "coeffs": [1]}]}


def test_a_far_mu_exponent_is_rejected_quickly(tmp_path):
    # mu = z^-3000 folds to z^3000, whose symmetrisation is not lambda = 2
    src = tmp_path / "input.json"
    src.write_text(json.dumps(laurent_form(-3000)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert (status, report["kind"]) == (1, "domain")
    assert "mu[0]" in report["error"]


@pytest.mark.parametrize("origin", [10**9, -10**9])
def test_an_exponent_beyond_the_cap_is_a_schema_error(tmp_path, origin):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(laurent_form(origin)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert (status, report["kind"]) == (2, "schema")
    assert "Laurent exponents must lie in" in report["error"]
    assert report["where"].startswith("surgery_algebra.serialize:element_from_obj:")


def test_a_form_with_exponents_at_the_cap_is_read_quickly(tmp_path):
    # lambda = z^-N + 2 + z^N and mu = 1 + z^N: stored sparsely, this is a few grids, not 2N+1
    n = serialize.MAX_LAURENT_EXPONENT
    lam = {"origin": -n, "coeffs": [1] + [0] * (n - 1) + [2] + [0] * (n - 1) + [1]}
    mu = {"origin": 0, "coeffs": [1] + [0] * (n - 1) + [1]}
    src = tmp_path / "input.json"
    src.write_text(json.dumps({"ring": {"ring": "laurent"}, "epsilon": 1, "lambda": [[lam]], "mu": [mu]}),
                   encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert status == 0 and report["result"]["rank"] == 1


def cyclic_form(m, n):
    """An n x n diagonal form over Z[Z/m] with lambda_ii = 2 + g + g^-1 and mu_i = 1 + g."""
    zero, lam, mu = [0] * m, [0] * m, [0] * m
    lam[0], lam[1], lam[-1] = 2, 1, 1
    mu[0], mu[1] = 1, 1
    return {"ring": {"ring": "cyclic", "m": m, "w": 1}, "epsilon": 1,
            "lambda": [[lam if i == j else zero for j in range(n)] for i in range(n)], "mu": [mu] * n}


@pytest.mark.parametrize("m, n", [(800, 1), (129, 2)])
def test_a_cyclic_form_beyond_the_width_cap_is_a_schema_error(tmp_path, m, n):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(cyclic_form(m, n)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert (status, report["kind"]) == (2, "schema")
    assert f"beyond {serialize.MAX_CYCLIC_WIDTH}" in report["error"]
    assert report["where"].startswith("surgery_algebra.serialize:matrix_from_obj:")


@pytest.mark.parametrize("m, n", [(256, 1), (128, 2)])
def test_a_cyclic_form_at_the_width_cap_is_read(tmp_path, m, n):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(cyclic_form(m, n)), encoding="utf-8")
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert status == 0 and report["result"]["rank"] == n


def distinct_exponent_form(n):
    """An n x n Laurent form with lambda_ij = z^(n*i+j) above the diagonal, its conjugate below
    and 2 on it: n*n - n + 1 distinct exponents, so n*n - n + 1 grids of n x n."""
    def entry(i, j):
        if i == j:
            return {"origin": 0, "coeffs": [2]}
        return {"origin": n * i + j if i < j else -(n * j + i), "coeffs": [1]}
    return {"ring": {"ring": "laurent"}, "epsilon": 1,
            "lambda": [[entry(i, j) for j in range(n)] for i in range(n)],
            "mu": [{"origin": 0, "coeffs": [1]}] * n}


def test_a_laurent_form_with_distinct_exponents_under_the_grid_cap_is_split_quickly(tmp_path):
    # 463 exponents x 22 x 22 = 224,092 grid cells, under the cap
    src = tmp_path / "input.json"
    src.write_text(json.dumps(distinct_exponent_form(22)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["split", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert status == 0
    psi = report["result"]["split"]["psi"]
    assert psi[0][1] == {"origin": 1, "coeffs": [1]} and psi[1][0] == {"origin": 0, "coeffs": []}


def test_form_info_on_a_laurent_form_with_distinct_exponents_is_quick(tmp_path):
    # lambda(1) = I + J has determinant n + 1, so no elimination over Z[z,z^-1] is needed
    src = tmp_path / "input.json"
    src.write_text(json.dumps(distinct_exponent_form(16)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert status == 0
    assert report["result"]["nonsingular"] is False


def test_a_laurent_form_beyond_the_window_cap_is_a_schema_error(tmp_path):
    # z^N above the diagonal, z^-N below and 2 on it, N the widest exponent a file may hold:
    # three grids of 22 x 22, but (2N + 1) * 22 * 22 window cells, each packed product
    # entry an integer of megabits
    n, big = 22, serialize.MAX_LAURENT_EXPONENT
    def entry(i, j):
        return {"origin": 0 if i == j else big if i < j else -big, "coeffs": [2 if i == j else 1]}
    src = tmp_path / "input.json"
    src.write_text(json.dumps({"ring": {"ring": "laurent"}, "epsilon": 1,
                               "lambda": [[entry(i, j) for j in range(n)] for i in range(n)],
                               "mu": [{"origin": 0, "coeffs": [1]}] * n}), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert (status, report["kind"]) == (2, "schema")
    assert f"beyond {serialize.MAX_LAURENT_WINDOW_CELLS}" in report["error"]
    assert report["where"].startswith("surgery_algebra.serialize:matrix_from_obj:")


@pytest.mark.parametrize("n", [23, 100])
def test_a_laurent_form_beyond_the_grid_cap_is_a_schema_error(tmp_path, n):
    # 507 x 23 x 23 = 268,203 cells; at n = 100, 9,901 x 100 x 100 = 99,010,000
    src = tmp_path / "input.json"
    src.write_text(json.dumps(distinct_exponent_form(n)), encoding="utf-8")
    start = time.monotonic()
    status, report = run(["split", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.monotonic() - start < 1.0
    assert (status, report["kind"]) == (2, "schema")
    assert f"beyond {serialize.MAX_LAURENT_GRID_CELLS}" in report["error"]
    assert report["where"].startswith("surgery_algebra.serialize:matrix_from_obj:")


def wide_window_hyperbolic_form(n, span, seed, step=1):
    """H_+(n/2) over Z[z,z^-1] transported by a seeded unit P = L·U whose entries off the
    diagonal are monomials +-z^(step e) with |e| <= span: lambda = P* H P is a unit."""
    ring, rng = rings.laurent(), random.Random(seed)

    def mono():
        return rings.monomial(ring, step * rng.randint(-span, span), rng.choice((1, -1)))

    lower = matrices.matrix(ring, [[mono() if j < i else int(i == j) for j in range(n)] for i in range(n)])
    upper = matrices.matrix(ring, [[mono() if j > i else int(i == j) for j in range(n)] for i in range(n)])
    p = lower.mul(upper)
    half = n // 2
    mu = [rings.zero(ring)] * n
    for i in range(n):
        for a in range(half):
            mu[i] = rings.add(mu[i], rings.mul(rings.involute(p.entry(a, i)), p.entry(a + half, i)))
    lam = p.star().mul(forms.hyperbolic_quadratic(ring, 1, half).lam).mul(p)
    return serialize.form_to_obj(forms.quadratic_form(ring, 1, lam, mu))


def test_form_info_on_a_wide_window_unit_is_refused_before_the_elimination(tmp_path):
    # a 10 x 10 unit lambda of exponent window 4,551, under the window and grid caps: the
    # packed elimination would hold integers of about 10 * 4,551 digits
    obj = wide_window_hyperbolic_form(10, 130, 11, 5)
    exponents = [e["origin"] + k for row in obj["lambda"] for e in row for k, c in enumerate(e["coeffs"]) if c]
    window = max(exponents) - min(exponents) + 1
    assert window == 4551 and window * 100 <= serialize.MAX_LAURENT_WINDOW_CELLS
    src = tmp_path / "input.json"
    src.write_text(json.dumps(obj), encoding="utf-8")
    start = time.process_time()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.process_time() - start < 2.0
    assert (status, report["kind"]) == (2, "schema")
    assert f"beyond {matrices.MAX_ELIMINATION_SIZE}" in report["error"]
    assert report["where"].startswith("surgery_algebra.matrices:_packed_elimination:")


def test_form_info_on_a_laurent_unit_under_the_elimination_cap_answers(tmp_path):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(wide_window_hyperbolic_form(10, 20, 11)), encoding="utf-8")
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert status == 0 and report["result"]["nonsingular"] is True


def test_form_info_on_a_dense_cyclic_non_unit_of_order_256_is_quick(tmp_path):
    # a 1 x 1 form over Z[Z/256] on the regular path: its 256 x 256 elimination took
    # about 8.5 s of CPU, while lambda(1) = -34 already shows that lambda is no unit
    rng = random.Random(5)
    mu = [rng.randint(-9, 9) for _ in range(256)]
    lam = [mu[k] + mu[-k % 256] for k in range(256)]
    text = json.dumps({"ring": {"ring": "cyclic", "m": 256, "w": 1}, "epsilon": 1, "lambda": [[lam]], "mu": [mu]})
    assert (len(text), sum(lam)) == (1908, -34)
    src = tmp_path / "input.json"
    src.write_text(text, encoding="utf-8")
    start = time.process_time()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.process_time() - start < 0.5
    assert (status, report["result"]) == (0, {"ring": {"ring": "cyclic", "m": 256, "w": 1}, "epsilon": 1,
                                              "rank": 1, "nonsingular": False, "even": True})
    assert report["provenance"]["sha256"] == ["ba42622e24cc0394219fa59a72cc310d642da9b353d8b2229b1a64b62042c6a6"]


def test_the_formation_verb_validates_once_and_reads_a_witness(tmp_path, monkeypatch):
    from surgery_algebra import formations
    z = rings.integers()
    kform = forms.quadratic_form(z, -1, [[0, 1], [-1, 0]], [1, 1])
    phi = formations.boundary_formation(kform)
    src, good, bad = tmp_path / "phi.json", tmp_path / "good.json", tmp_path / "bad.json"
    src.write_text(json.dumps(serialize.formation_to_obj(phi)), encoding="utf-8")
    dual = matrices.vstack(matrices.zero_matrix(z, 2, 2), matrices.identity_matrix(z, 2))
    good.write_text(json.dumps(serialize.matrix_to_obj(dual)), encoding="utf-8")
    bad.write_text(json.dumps(serialize.matrix_to_obj(phi.f)), encoding="utf-8")
    calls = []
    check = formations.formation_violations
    monkeypatch.setattr(formations, "formation_violations", lambda p: calls.append(p) or check(p))
    status, report = run(["formation", "--in", str(src), "--witness", str(good),
                          "--out", str(tmp_path / "report.json")])
    assert status == 0 and len(calls) == 1
    result = report["result"]
    assert result["valid"] and result["kernel_form"]["lambda"] == [[0, 1], [-1, 0]]
    # the witness checks still run, with the errors of formations.boundary_witness
    status, report = run(["formation", "--in", str(src), "--witness", str(bad),
                          "--out", str(tmp_path / "report.json")])
    assert (status, report["kind"], report["error"]) == (1, "domain", "witness is not complementary to F")
    assert len(calls) == 2


@pytest.mark.parametrize("ell", [-1, cli.MAX_HYPERBOLIC_ELL + 1])
def test_a_hyperbolic_rank_outside_the_bound_is_a_schema_error(tmp_path, ell):
    status, report = run(["hyperbolic", "--epsilon", "1", "--ell", str(ell), "--out", str(tmp_path / "report.json")])
    assert (status, report["kind"], report["error"]) == (2, "schema", f"--ell must lie in [0, 1024], got {ell}")


def test_the_rank_zero_hyperbolic_form_is_answered(tmp_path):
    status, report = run(["hyperbolic", "--epsilon", "-1", "--ell", "0", "--out", str(tmp_path / "report.json")])
    assert (status, report["result"]["form"]) == (0, {"epsilon": -1, "lambda": [], "mu": [], "ring": {"ring": "Z"}})


@pytest.mark.parametrize("pad, same", [(-1, None), (0, True), (10**6, False)])
def test_the_stabilization_is_refused_below_0_and_bounded_by_the_isometry(tmp_path, pad, same):
    z = rings.integers()
    phi = serialize.formation_to_obj(formations.trivial_formation(z, 1, 1))
    src = tmp_path / "pair.json"
    src.write_text(json.dumps({"first": phi, "second": phi,
                               "isometry": serialize.matrix_to_obj(matrices.identity_matrix(z, 2))}), encoding="utf-8")
    start = time.process_time()
    status, report = run(["formation", "--in", str(src), "--stabilize", str(pad), "--out", str(tmp_path / "report.json")])
    assert time.process_time() - start < 1.0
    if same is None:
        assert (status, report["kind"], report["error"]) == (2, "schema", "--stabilize must be at least 0, got -1")
    else:
        assert (status, report["result"]) == (0, {"stably_isomorphic": same, "pad": pad})


def transported_non_unit_form(order, n, seed):
    """lambda = P*·H·P over Z[Z/order], with the coboundary of a split transport in mu, for
    P = I + N, N dense with coefficients in [-1, 1] and N(1) = 0: P(1) = I, so lambda passes
    z -> 1, though it is no unit."""
    ring, rng = rings.cyclic(order), random.Random(seed)

    def entry(i, j):
        c = [rng.randint(-1, 1) for _ in range(order)]
        c[0] += int(i == j) - sum(c)
        return rings.RingElement(ring, tuple(c))

    p = matrices.FormMatrix(ring, n, n, [[entry(i, j) for j in range(n)] for i in range(n)])
    s = generators.transport(rng, forms.hyperbolic_split(ring, 1, n // 2), p)
    return serialize.form_to_obj(forms.split_to_quadratic(s))


@pytest.mark.parametrize("order, n, size", [(25, 10, 11390), (21, 12, 13776)])
def test_form_info_on_a_transported_non_unit_is_quick(tmp_path, order, n, size):
    # dense rank-10 and rank-12 forms whose determinants took 11-13 s of CPU by elimination;
    # det R(lambda) mod p refuses them
    text = json.dumps(transported_non_unit_form(order, n, 7))
    assert len(text) == size
    src = tmp_path / "input.json"
    src.write_text(text, encoding="utf-8")
    start = time.process_time()
    status, report = run(["form-info", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert time.process_time() - start < 0.5
    assert (status, report["result"]) == (0, {"ring": {"ring": "cyclic", "m": order, "w": 1}, "epsilon": 1,
                                              "rank": n, "nonsingular": False, "even": True})


def test_form_info_states_evenness_without_testing_it(tmp_path, monkeypatch):
    # is_even and verify_map read the diagonal rule through split_hessian_witness
    group_ring = tmp_path / "group-ring.json"
    group_ring.write_text(json.dumps(transported_non_unit_form(3, 2, 1)), encoding="utf-8")
    paths = [str(acceptance.fixture_path(name)) for name in ("e8.json", "arf.json", "hyperbolic-plus-1.json")]
    paths.append(str(group_ring))
    calls = []
    for name in ("is_even", "split_hessian_witness"):
        monkeypatch.setattr(forms, name, lambda *a, name=name: calls.append(name))
    for src in paths:
        status, report = run(["form-info", "--in", src, "--out", str(tmp_path / "report.json")])
        assert (status, report["result"]["even"]) == (0, True)
    assert calls == []


@pytest.mark.parametrize("value", [0, None, True, 1.5, "x", [], {}], ids=json.dumps)
@pytest.mark.parametrize("verb", sorted(cli.NEEDS_INPUT))
def test_no_top_level_json_value_ends_in_a_traceback(tmp_path, verb, value):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(value), encoding="utf-8")
    status, report = run([verb, "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert status in (1, 2) and "error" in report and "kind" in report


@pytest.mark.parametrize("value", [0, None, True, 1.5, "psi0", "first", []], ids=json.dumps)
def test_the_formation_verb_refuses_a_file_that_is_no_object(tmp_path, value):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(value), encoding="utf-8")
    status, report = run(["formation", "--in", str(src), "--out", str(tmp_path / "report.json")])
    assert (status, report["kind"], report["error"]) == (2, "schema", "formation file must be a JSON object")
