"""End-to-end checks of the command line interface via subprocess."""
import errno
import functools
import gc
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from lieweyl import algebra, catalog3d, cli, mla, riemann, samples, weyl

SOL_TEXT = """mla 1
dim 3
bracket 1 3 = -1 0 0
bracket 2 3 = 0 1 0
metric
1 0 0
0 1 0
0 0 1
"""

HYP3_TEXT = """mla 1
dim 3
bracket 1 2 = 0 1 0
bracket 1 3 = 0 0 1
metric
1 0 0
0 1 0
0 0 1
"""

# Free 3-step nilpotent on two generators; it has no codimension-one
# abelian ideal, so the almost abelian machinery must refuse it.
RANK2_STEP3_TEXT = """mla 1
dim 5
bracket 1 2 = 0 0 1 0 0
bracket 1 3 = 0 0 0 1 0
bracket 2 3 = 0 0 0 0 1
metric
1 0 0 0 0
0 1 0 0 0
0 0 1 0 0
0 0 0 1 0
0 0 0 0 1
"""

# A trace-case almost abelian algebra in a random basis (draw 1093 of the
# sequence in test_almost_abelian.test_decompose_accepts_nearly_singular_derivations)
# as written to MLA: the third singular value of its derived subalgebra is
# 2.9e-8 of the first, so a computed orthonormal basis of [g, g] is accurate
# only to about 1e-8.
TRACE4_ILL_TEXT = """mla 1
dim 4
bracket 1 2 = 0.6584078577072559 -0.7582926185717372 -0.33618562498260485 -0.8754560839247414
bracket 1 3 = -0.26096485356301846 0.21364011423964288 -0.1997721850936584 0.5228782866738719
bracket 1 4 = -0.16875536158382093 0.22773982658985528 0.2140778005790971 0.1568308718806577
bracket 2 3 = 0.35735825299403273 -0.7891532396782264 -1.6292054726112724 0.28892728769779735
bracket 2 4 = 0.6766283000984923 -0.6342516766761648 0.2101893915687859 -1.193163396012287
bracket 3 4 = -0.17659279531946764 -0.05831524692756519 -0.9125516007613966 0.764392369824652
metric
1.532958559830475 0.055555127725186434 -0.11259719157659123 0.06233560675136572
0.055555127725186434 0.9547950880989475 0.13348664443533914 -0.002379539568193832
-0.11259719157659123 0.13348664443533914 1.02240495822567 0.02830544257264022
0.06233560675136572 -0.002379539568193832 0.02830544257264022 0.8007502587179666
"""

VALIDATE_SOL_TEXT = """algebra.dim        3
algebra.ok         true
flags.abelian      false
flags.center_dim   0
flags.derived_dim  2
flags.nilpotent    false
flags.solvable     true
flags.unimodular   true
"""

VALIDATE_SOL_RECORDS = """algebra.dim = 3
algebra.ok = true
flags.abelian = false
flags.center_dim = 0
flags.derived_dim = 2
flags.nilpotent = false
flags.solvable = true
flags.unimodular = true
"""


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lieweyl", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_mla(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_text_output(tmp_path):
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli("validate", path)
    assert proc.returncode == 0
    assert proc.stdout == VALIDATE_SOL_TEXT
    assert proc.stderr == ""


def test_validate_records_output(tmp_path):
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli("validate", path, "--format", "records")
    assert proc.returncode == 0
    assert proc.stdout == VALIDATE_SOL_RECORDS


def test_curvature_values(tmp_path):
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli("curvature", path, "--format", "records")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["ricci.scalar"] == pytest.approx(-2.0)
    assert records["einstein.defect"] == pytest.approx(2.0 * np.sqrt(6.0) / 3.0)
    assert np.allclose(records["ricci.matrix"], np.diag([0.0, 0.0, -2.0]), atol=1e-12)
    assert np.allclose(records["ricci.besse"], records["ricci.matrix"], atol=1e-9)
    assert "connection.gamma[1]" in records
    assert "connection.gamma[3]" in records


def test_weyl_solve_finds_both_roots(tmp_path):
    path = write_mla(tmp_path, "hyp3.mla", HYP3_TEXT)
    proc = run_cli("weyl-solve", path, "--format", "records")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["weyl.root_count"] == 2
    assert min(records[f"weyl.roots[{i}].residual"] for i in range(2)) <= 1e-16
    roots = sorted((records[f"weyl.roots[{i}]"] for i in range(2)), key=np.linalg.norm)
    assert np.allclose(roots[0], [0.0, 0.0, 0.0], atol=1e-8)
    assert np.allclose(roots[1], [1.0, 0.0, 0.0], atol=1e-8)
    for i in range(2):
        assert records[f"weyl.roots[{i}].closed"] is True
        assert records[f"weyl.roots[{i}].exact"] is True
        assert records[f"weyl.roots[{i}].residual"] <= 1e-10


def test_report_on_an_ill_conditioned_derived_subalgebra(tmp_path):
    # its one Lee form kills every bracket to 3e-15: closed and exact, and
    # the classifier finds the ideal and agrees with the solver
    path = write_mla(tmp_path, "trace4.mla", TRACE4_ILL_TEXT)
    proc = run_cli("report", path, "--format", "records")
    assert proc.returncode == 0, proc.stderr
    records = mla.parse_records(proc.stdout)
    assert records["weyl.root_count"] == 1
    assert records["weyl.roots[0].closed"] is True
    assert records["weyl.roots[0].exact"] is True
    assert records["aa.almost_abelian"] is True
    assert records["aa.unique_ideal"] is True
    assert records["aa.case"] == "TraceCase"
    assert records["aa.root_count"] == 1
    assert np.allclose(records["aa.lee_forms[0]"], records["weyl.roots[0]"], atol=1e-8)


def test_weyl_solve_is_deterministic(tmp_path):
    path = write_mla(tmp_path, "hyp3.mla", HYP3_TEXT)
    first = run_cli("weyl-solve", path)
    second = run_cli("weyl-solve", path)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout


def test_aa_classify_basics(tmp_path):
    path = write_mla(tmp_path, "hyp3.mla", HYP3_TEXT)
    proc = run_cli("aa-classify", path, "--format", "records")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["aa.case"] == "EinsteinFamily"
    assert records["aa.coefficient"] == pytest.approx(1.0)
    assert records["aa.root_count"] == 2
    assert records["aa.lee_forms[1].flat"] is True


@pytest.mark.parametrize(
    "command, option, value",
    [
        pytest.param("weyl-solve", "--starts", "8", id="--starts-8"),
        pytest.param("weyl-solve", "--seed", "1", id="--seed-1"),
        pytest.param("aa-classify", "--ideal", "0 1 0; 0 0 1", id="--ideal"),
    ],
)
def test_weyl_solve_has_no_search_options(tmp_path, command, option, value):
    # the seeded search is API-only (weyl.solve_lee_forms); the quotient ring
    # is the evidence that there is no root.  decompose finds its ideal
    # itself, so aa-classify takes none
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli(command, path, option, value)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {option} {value}" in proc.stderr
    assert proc.stdout == ""


def test_aa_classify_domain_failure_exit_one(tmp_path):
    path = write_mla(tmp_path, "rank2step3.mla", RANK2_STEP3_TEXT)
    proc = run_cli("aa-classify", path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error[not-almost-abelian]:")
    assert proc.stdout == ""


def test_report_covers_all_sections(tmp_path):
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli("report", path, "--format", "records")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["algebra.ok"] is True
    assert records["ricci.scalar"] == pytest.approx(-2.0)
    assert records["weyl.root_count"] == 0
    # no root, so the count is the only Weyl record
    assert [key for key in records if key.startswith("weyl.")] == ["weyl.root_count"]
    assert records["aa.almost_abelian"] is True
    assert records["aa.case"] == "NoWE"
    assert np.isnan(records["aa.coefficient"])


def test_weyl_solve_without_roots_prints_only_the_count(tmp_path):
    path = write_mla(tmp_path, "sol.mla", SOL_TEXT)
    proc = run_cli("weyl-solve", path, "--format", "records")
    assert proc.returncode == 0
    assert mla.parse_records(proc.stdout) == {"weyl.root_count": 0}
    # the seeded search of the API finds the residual's minimum sqrt(5/2)
    m = mla.parse_mla(SOL_TEXT).to_metric_lie_algebra()
    result = weyl.solve_lee_forms(m, starts=weyl.DEFAULT_STARTS)
    assert result.infimum == pytest.approx(np.sqrt(2.5), rel=1e-9)


def _cold_report(path):
    """Records of a report in a fresh interpreter, and whether it imported
    numpy.random (the seeded search's generator is a lazy import)."""
    probe = (
        "import sys\n"
        "from lieweyl import cli\n"
        "code = cli.main(['report', sys.argv[1], '--format', 'records'])\n"
        "sys.stderr.write(f'{code} {\"numpy.random\" in sys.modules}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, path], capture_output=True, text=True)
    assert proc.stderr.startswith("0 "), proc.stderr
    return mla.parse_records(proc.stdout), proc.stderr == "0 True"


def test_report_with_roots_does_not_import_numpy_random(tmp_path):
    # the quotient route finds the roots, so the seeded search and its
    # generator never run
    records, imported = _cold_report(write_mla(tmp_path, "hyp3.mla", HYP3_TEXT))
    assert not imported
    assert records["weyl.root_count"] == 2


@pytest.mark.parametrize("name", ["sol", "heisenberg"])
def test_report_without_roots_does_not_import_numpy_random(tmp_path, name):
    # a report runs no seeded search, so a root-free document runs no start
    # at all and prints only the root count
    text = SOL_TEXT if name == "sol" else mla.emit_mla(
        mla.MlaDocument.from_metric_lie_algebra(samples.heisenberg()))
    records, imported = _cold_report(write_mla(tmp_path, f"{name}.mla", text))
    assert not imported
    assert [key for key in records if key.startswith("weyl.")] == ["weyl.root_count"]
    assert records["weyl.root_count"] == 0


def test_report_flags_non_almost_abelian(tmp_path):
    path = write_mla(tmp_path, "rank2step3.mla", RANK2_STEP3_TEXT)
    proc = run_cli("report", path, "--format", "records")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["aa.almost_abelian"] is False
    assert records["weyl.root_count"] == 0
    assert [key for key in records if key.startswith("weyl.")] == ["weyl.root_count"]
    assert "aa.case" not in records
    m = mla.parse_mla(RANK2_STEP3_TEXT).to_metric_lie_algebra()
    assert weyl.solve_lee_forms(m, starts=weyl.DEFAULT_STARTS).infimum > 0.5


def test_missing_file_exit_two(tmp_path):
    proc = run_cli("validate", str(tmp_path / "nope.mla"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[input]:")


def test_malformed_document_exit_two(tmp_path):
    undecodable = tmp_path / "undecodable.mla"
    undecodable.write_bytes(b"\xff\xfe\x00")
    cases = [
        (write_mla(tmp_path, "broken.mla", "mla 1\ndim 3\nbad\n"), "error[mla.unknown-directive]:"),
        # max |c|^2 overflows float64, and so would the Jacobi sums
        (write_mla(tmp_path, "huge.mla", SOL_TEXT.replace("-1 0 0", "1e200 0 0")), "error[mla.overflow]:"),
        (str(undecodable), f"error[input]: cannot read {undecodable}"),
    ]
    for path, prefix in cases:
        proc = run_cli("validate", path)
        assert proc.returncode == 2, (path, proc.stderr)
        assert proc.stderr.startswith(prefix), proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("small", ["1e-320", "1e-40"])
def test_metric_singular_to_working_precision_exits_two(tmp_path, capsys, small):
    # let through, these metrics make curvature print nan Ricci (1e-320) and
    # report die in an SVD (1e-320) or raise a consistency error (1e-40)
    text = f"mla 1\ndim 3\nbracket 1 2 = 0 0 1\nmetric\n1 0 0\n0 1 0\n0 0 {small}\n"
    path = write_mla(tmp_path, "singular.mla", text)
    for command in ("validate", "curvature", "report", "weyl-solve"):
        assert cli.main([command, path]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error[mla.metric-not-spd]: line 0: metric is singular to working precision\n"


def test_ill_conditioned_heisenberg_reports_as_its_isometric_document(tmp_path, capsys):
    # metric diag(1, 1, 1e-15) is accepted (squared pivot ratio 1e-15 > eps);
    # its frame is that of the identity metric with [e_1, e_2] = sqrt(1e-15) e_3
    bracket = "bracket 1 2 = 0 0 {}\nmetric\n1 0 0\n0 1 0\n0 0 {}\n"
    texts = {"ill.mla": bracket.format("1", "1e-15"),
             "iso.mla": bracket.format("3.1622776601683794e-8", "1")}
    seen = {}
    for name, body in texts.items():
        path = write_mla(tmp_path, name, "mla 1\ndim 3\n" + body)
        assert cli.main(["report", path, "--format", "records"]) == 0, name
        report = mla.parse_records(capsys.readouterr().out)
        assert cli.main(["weyl-solve", path, "--format", "records"]) == 0, name
        solve = mla.parse_records(capsys.readouterr().out)
        seen[name] = (report["aa.case"], report["weyl.root_count"], solve["weyl.root_count"])
    assert seen["ill.mla"] == seen["iso.mla"] == ("NoWE", 0, 0)


def _report_verdicts(tmp_path, capsys, name, m):
    """Exit code, record keys and verdict records of ``report``; roots are
    listed by increasing g-norm, so their indices do not depend on the basis."""
    path = write_mla(tmp_path, name, mla.emit_mla(mla.MlaDocument.from_metric_lie_algebra(m)))
    code = cli.main(["report", path, "--format", "records"])
    records = mla.parse_records(capsys.readouterr().out)
    verdicts = {key: value for key, value in records.items()
                if key.startswith("flags.") or key == "aa.case"
                or key.endswith(".root_count") or isinstance(value, bool)}
    return code, sorted(records), verdicts


def test_report_verdicts_are_independent_of_basis_and_scale(tmp_path, capsys):
    # c -> lam c with g fixed is a homothety, and a basis change is an
    # isometry: no flag, label, count or closedness verdict may move
    rng = np.random.default_rng(11)
    models = {
        f"{kind}{n}": samples.random_almost_abelian(rng, n, kind, basis_change=False)
        for kind in ("einstein", "trace", "generic") for n in (3, 7)
    }
    models["heisenberg_r2"] = samples.heisenberg(2)
    models["filiform4"] = samples.filiform4()
    models["ridr2"] = catalog3d.build_family(
        catalog3d.Family3D(catalog3d.BracketFamily.R_ID_R2, catalog3d.MetricFamily.G_NU, nu=2.0)
    )
    for name, m in models.items():
        want = _report_verdicts(tmp_path, capsys, f"{name}.mla", m)
        for lam in (1e-8, 1.0, 1e8):
            moved = riemann.change_basis(m, samples.random_basis_change(rng, m.dim))
            moved = riemann.MetricLieAlgebra(algebra.LieAlgebra(lam * moved.c), moved.metric)
            got = _report_verdicts(tmp_path, capsys, f"{name}-{lam:g}.mla", moved)
            assert got == want, (name, lam)


def test_catalog3d_emits_parseable_document():
    proc = run_cli("catalog3d", "--family", "ridr2", "--metric", "g", "--nu", "2.0")
    assert proc.returncode == 0
    doc = mla.parse_mla(proc.stdout)
    m = doc.to_metric_lie_algebra()
    assert m.dim == 3
    assert np.allclose(np.asarray(m.metric), np.diag([1.0, 1.0, 2.0]))
    records = mla.parse_records(proc.stdout)
    assert records["cl3.admits"] is True
    assert records["cl3.root_count"] == 2
    assert records["normalform.kind"] == "similarity"
    assert records["normalform.k"] == pytest.approx(1.0 / np.sqrt(2.0))
    assert records["normalform.l"] == pytest.approx(0.0, abs=1e-12)


def test_catalog3d_non_admitting_point():
    proc = run_cli("catalog3d", "--family", "sol", "--metric", "std")
    assert proc.returncode == 0
    records = mla.parse_records(proc.stdout)
    assert records["cl3.admits"] is False
    assert records["cl3.root_count"] == 0
    assert "normalform.kind" not in records


def test_catalog3d_rejects_degenerate_metric_point():
    proc = run_cli(
        "catalog3d", "--family", "gt", "--t", "2.0", "--metric", "h",
        "--mu", "1.0", "--nu", "1.0",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[input]:")


def test_catalog3d_rejects_unpaired_metric():
    proc = run_cli("catalog3d", "--family", "gt", "--t", "2.0", "--metric", "m")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[input]:")


@pytest.mark.parametrize(
    "options",
    [
        ("--family", "gt", "--metric", "std"),  # gt needs --t
        ("--family", "sol", "--t", "2", "--metric", "std"),  # --t only applies to gt
        ("--family", "g0", "--t", "2", "--metric", "std"),  # g0 fixes t = 0
        ("--family", "sol", "--metric", "std", "--mu", "3"),  # --mu only applies to g and h
        ("--family", "sol", "--metric", "m", "--mu", "2"),
        ("--family", "abelian", "--metric", "std", "--nu", "-5"),  # std reads no --nu
        ("--family", "gt", "--t", "2", "--metric", "h"),  # h needs --mu
    ],
)
def test_catalog3d_flag_rules_exit_two(options):
    proc = run_cli("catalog3d", *options)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error[input]:")
    assert proc.stdout == ""
    if options[-2:] == ("--metric", "h"):
        # an omitted --mu would be 1, where h is singular: name the flag instead
        assert "--mu" in proc.stderr


# in the domain of every row that pairs them: so2r2 needs mu <= 1, h needs
# mu > 1, and gt at t = 2 needs mu <= 2
_CATALOG_MU = {"g": 1.0, "h": 2.0}


@pytest.mark.parametrize("family", sorted(catalog3d._ROWS))
def test_catalog3d_command_follows_the_table_on_every_pair(family, capsys):
    # every metric family, so every --metric name, with in-domain flags: the
    # command exits 0 exactly on the table's pairings, its document parses
    # back to build_family's algebra, and its verdict is table_admits'
    row = catalog3d._ROWS[family]
    for mf, spec in catalog3d._METRICS.items():
        point = catalog3d.Family3D(
            row.family, mf, t=2.0 if row.takes_t else 0.0,
            mu=_CATALOG_MU[spec.flag] if "mu" in spec.params else 1.0,
            nu=2.0 if "nu" in spec.params else 1.0,
        )
        argv = ["catalog3d", "--family", family, "--metric", spec.flag]
        for name in ("t", "mu", "nu"):
            if name in spec.params or (name == "t" and row.takes_t):
                argv += [f"--{name}", repr(getattr(point, name))]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if mf not in row.pairings:
            assert code == 2 and out == "", argv
            assert err.startswith("error[input]: metric family"), err
            continue
        assert code == 0, (argv, err)
        m, want = mla.parse_mla(out).to_metric_lie_algebra(), catalog3d.build_family(point)
        assert np.array_equal(m.c, want.c) and np.array_equal(m.metric, want.metric)
        assert mla.parse_records(out)["cl3.admits"] is catalog3d.table_admits(point), argv


def test_catalog3d_builds_its_algebra_once(monkeypatch, capsys):
    # one table evaluation and one construction, and the solve, the adapted
    # frame and the emitted document all read that one algebra
    calls = {"table_admits": 0, "MetricLieAlgebra": []}
    table_admits, construct = catalog3d.table_admits, catalog3d.MetricLieAlgebra

    def counted_table_admits(point):
        calls["table_admits"] += 1
        return table_admits(point)

    def counted_construct(*args):
        calls["MetricLieAlgebra"].append(construct(*args))
        return calls["MetricLieAlgebra"][-1]

    monkeypatch.setattr(catalog3d, "table_admits", counted_table_admits)
    monkeypatch.setattr(catalog3d, "MetricLieAlgebra", counted_construct)
    readers = {}
    for owner, name in ((weyl, "solve_lee_forms"), (catalog3d, "adapted_frame")):
        def reading(m, *args, _name=name, _original=getattr(owner, name), **kwargs):
            readers.setdefault(_name, []).append(m)
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(owner, name, reading)
    from_m = mla.MlaDocument.from_metric_lie_algebra.__func__

    def reading_document(cls, m):
        readers.setdefault("emit_mla", []).append(m)
        return from_m(cls, m)

    monkeypatch.setattr(mla.MlaDocument, "from_metric_lie_algebra", classmethod(reading_document))
    assert cli.main(["catalog3d", "--family", "ridr2", "--metric", "g", "--nu", "2"]) == 0
    assert "cl3.admits = true" in capsys.readouterr().out
    assert calls["table_admits"] == 1
    [m] = calls["MetricLieAlgebra"]
    assert {name: [id(x) for x in ms] for name, ms in readers.items()} == {
        "solve_lee_forms": [id(m)], "adapted_frame": [id(m)], "emit_mla": [id(m)]}


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage:" in proc.stderr


def test_entrypoint_freezes_the_heap_after_main_and_exits_with_its_code(monkeypatch):
    events = []
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or 1)
    # a fake freeze: the real one would move pytest's own heap out of reach
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert events == ["main", "freeze"]
    assert exit_info.value.code == 1


def _in_process(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def test_process_output_is_main_output(tmp_path, capsys):
    # the frozen heap and the explicit flush leave stdout, stderr and the
    # exit code of a process exactly those of main()
    rng = np.random.default_rng(11)
    models = {
        "aa3": samples.random_almost_abelian(rng, 3, "trace"),
        "heisenberg8": samples.heisenberg(5),
        "aa12": samples.random_almost_abelian(rng, 12, "einstein"),
    }
    for name, m in models.items():
        path = write_mla(tmp_path, f"{name}.mla",
                         mla.emit_mla(mla.MlaDocument.from_metric_lie_algebra(m)))
        proc = subprocess.run([sys.executable, "-m", "lieweyl", "report", path, "--format",
                               "records"], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == _in_process(
            capsys, "report", path, "--format", "records"), name
    failures = [
        ("aa-classify", write_mla(tmp_path, "rank2step3.mla", RANK2_STEP3_TEXT), 1),
        ("report", write_mla(tmp_path, "broken.mla", "mla 1\ndim 3\nbad\n"), 2),
    ]
    for command, path, code in failures:
        proc = subprocess.run([sys.executable, "-m", "lieweyl", command, path],
                              capture_output=True)
        want = _in_process(capsys, command, path)
        assert want[0] == code and want[2].startswith(b"error["), want
        assert (proc.returncode, proc.stdout, proc.stderr) == want, command


def _write_to(stdout, buffered, *args):
    """``python -m lieweyl`` with ``args`` into ``stdout``.  With a buffered
    stdout the output fails at the flush, without it in the write."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "lieweyl", *args],
                          stdout=stdout, stderr=subprocess.PIPE, env=env)


def _into_closed_pipe(buffered, *args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        return _write_to(write_end, buffered, *args)
    finally:
        os.close(write_end)


def _assert_one_error_line(proc, reason):
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.decode().splitlines() == [f"error: cannot write output: {reason}"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False])
def test_full_disk_is_one_error_line(tmp_path, buffered):
    with open("/dev/full", "wb") as full:
        proc = _write_to(full, buffered, "report", write_mla(tmp_path, "hyp3.mla", HYP3_TEXT))
    _assert_one_error_line(proc, "[Errno 28] No space left on device")


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_pipe_is_one_error_line(tmp_path, buffered):
    proc = _into_closed_pipe(buffered, "report", write_mla(tmp_path, "hyp3.mla", HYP3_TEXT))
    _assert_one_error_line(proc, "[Errno 32] Broken pipe")


# argparse writes --help into a buffered stdout and exits inside main(); the
# write fails at entrypoint's flush.  An unbuffered stdout fails inside
# argparse, which drops the error itself, so these run buffered only.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_help_on_a_full_disk_is_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = _write_to(full, True, "--help")
    _assert_one_error_line(proc, "[Errno 28] No space left on device")


def test_help_into_a_closed_pipe_is_one_error_line():
    _assert_one_error_line(_into_closed_pipe(True, "--help"), "[Errno 32] Broken pipe")


def test_entrypoint_flushes_after_argparse_exits(monkeypatch, tmp_path, capsys):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))

    def usage_error():
        events.append("main")
        raise SystemExit(2)

    monkeypatch.setattr(cli, "main", usage_error)
    with pytest.raises(SystemExit) as exit_info:
        cli.entrypoint()
    assert events == ["main", "freeze"]
    assert exit_info.value.code == 2

    def help_text():
        sys.stdout.write("usage: lieweyl\n")
        raise SystemExit(0)

    class FullStdout(io.StringIO):
        def flush(self):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):  # the descriptor that entrypoint points at devnull
            return target.fileno()

    with open(tmp_path / "stdout", "wb") as target, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", FullStdout())
        patch.setattr(cli, "main", help_text)
        with pytest.raises(SystemExit) as exit_info:
            cli.entrypoint()
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == "error: cannot write output: [Errno 28] No space left on device\n"


def test_report_computes_shared_geometry_once(tmp_path, monkeypatch, capsys):
    """One report reads the frame structure constants, the structure-constant
    Ricci, the validity check and the solver's residual system from many
    layers, and computes each once."""
    path = write_mla(tmp_path, "hyp3.mla", HYP3_TEXT)
    calls = {}
    package = [mod for name, mod in sys.modules.items()
               if mod is not None and (name == "lieweyl" or name.startswith("lieweyl."))]
    # the frame structure constants are a cached property: count its builds
    frame_structure = riemann.MetricLieAlgebra.__dict__["frame_structure"]
    calls["frame_structure"] = 0

    def counted_frame_structure(self):
        calls["frame_structure"] += 1
        return frame_structure.func(self)

    counted_property = functools.cached_property(counted_frame_structure)
    counted_property.__set_name__(riemann.MetricLieAlgebra, "frame_structure")
    monkeypatch.setattr(riemann.MetricLieAlgebra, "frame_structure", counted_property)
    for owner, name in ((riemann, "frame_besse_ricci"), (algebra, "validate")):
        original = getattr(owner, name)
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # every module binding of the function, so `from ... import` names count too
        for mod in package:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    # the solve, each classifier root's residual and the flatness
    # precondition of the nonzero root all evaluate E
    build = weyl._ResidualSystem.__init__
    calls["residual_system"] = 0

    def counted_build(self, m):
        calls["residual_system"] += 1
        build(self, m)

    monkeypatch.setattr(weyl._ResidualSystem, "__init__", counted_build)
    assert cli.main(["report", path, "--format", "records"]) == 0
    assert "aa.lee_forms[1].flat = true" in capsys.readouterr().out
    assert calls == {"frame_besse_ricci": 1, "frame_structure": 1, "validate": 1,
                     "residual_system": 1}
