

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from qglab import cli, dispersion
from qglab.graphs import PoleError, build_example
from qglab.cli import VERB_TAGS, main
from qglab.lab import DEFAULT_Z, EXPERIMENT_TAGS, run_experiment, write_csv
from qglab.mmatrix import FiberParams, m_blocks_closed


def test_list_enumerates_tags(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == list(EXPERIMENT_TAGS)


def test_no_verb_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_verbs_cover_all_tags():
    covered = [t for tags in VERB_TAGS.values() for t in tags]
    assert sorted(covered) == sorted(EXPERIMENT_TAGS)


def test_mmatrix_verb_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["mmatrix", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[PASS] additivity" in text
    assert (out / "additivity.csv").is_file()
    assert (out / "mmatrix_entries.csv").is_file()
    assert (out / "summary.txt").is_file()
    header = (out / "additivity.csv").read_text().splitlines()[0]
    assert "example" in header


def test_mmatrix_entries_csv_equals_an_eager_build(tmp_path):
    # the entries table is built when the CLI writes it; its CSV must be the
    # one an eager build of the same sampled blocks writes
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex2, ex0\neps_list = 0.3, 0.1\ntau_count = 3\n")
    out = tmp_path / "runs"
    assert main(["mmatrix", "--config", str(cfg), "--out", str(out)]) == 0
    taus = np.linspace(-3.0, 3.0, 3)[:, None]
    zs = np.array([*DEFAULT_Z, complex(7.0, 0.3)])
    eager = []
    for name in ("ex2", "ex0"):
        for eps in (0.3, 0.1):
            mset = m_blocks_closed(build_example(name), FiberParams(eps, taus, zs))
            blocks = {"full": mset.m_full, "stiff": mset.m_stiff, "soft": mset.m_soft}
            for i, tau in enumerate(taus.ravel().tolist()):
                for j, z in enumerate(zs.tolist()):
                    for block, m in blocks.items():
                        for r in range(2):
                            for c in range(2):
                                v = complex(m[i, j, r, c])
                                eager.append(dict(
                                    example=name, eps=eps, tau=tau, re_z=z.real, im_z=z.imag,
                                    block=block, row=r, col=c, re=v.real, im=v.imag,
                                ))
    write_csv(str(tmp_path / "eager.csv"), eager)
    assert (out / "mmatrix_entries.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()


def test_config_file_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex0\n")
    assert main(["mmatrix", "--config", str(cfg)]) == 0
    assert "[PASS] additivity" in capsys.readouterr().out


def test_resolvent_verb_passes(capsys):
    assert main(["resolvent"]) == 0
    assert "[PASS] krein_vs_direct" in capsys.readouterr().out


def test_dispersion_verb_passes(capsys):
    assert main(["dispersion"]) == 0
    text = capsys.readouterr().out
    for tag in ("dispersion_series", "schur_check", "sum_identities"):
        assert f"[PASS] {tag}" in text


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tol = 1\n")
    assert main(["mmatrix", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "qglab: mmatrix does not take tol; "
        "accepted keys: examples, eps_list, tau_count, z_list"
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("eps_lst = 0.1\n", "converge does not take eps_lst; accepted keys: "
         "examples, eps_list, tau_list, z, resolution, w"),
        ("resolution = fine\n", "gen_res_rate: resolution takes int values"),
        ("eps_list = 0.1, 0.05, 0.025\n",
         "gen_res_rate: eps_list needs at least 4 values for its slope fits, got 3"),
    ],
)
def test_config_error_exits_2_before_any_experiment(tmp_path, capsys, monkeypatch,
                                                    text, message):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda tag, cfg: ran.append(tag))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main(["converge", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("mmatrix", "tau_count = true\n", "additivity: tau_count takes int values, got 'true'"),
        ("resolvent", "resolutions = 8, 16\n",
         "krein_vs_direct: resolutions must be at least 16, got [8, 16]"),
        ("bands", "resolution = 20\n", "bands: resolution must be at least 32, got 20"),
        # eigsh gives at most its dof count less 2 eigenvalues, and the coarse
        # grid of resolution 64 has 32 unknowns: 40 bands ended in scipy's
        # TypeError traceback
        ("bands", "resolution = 64\nn_bands = 40\n",
         "bands: n_bands must be at most 30 at resolution 64 (the coarse FEM grid's "
         "unknowns less 2), got 40"),
        ("converge", "resolution = 2\n", "gen_res_rate: resolution must be at least 16, got 2"),
    ],
)
def test_bool_or_too_small_resolution_exits_2_before_any_experiment(
    tmp_path, capsys, monkeypatch, verb, text, message
):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda tag, cfg: ran.append(tag))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main([verb, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert captured.err.splitlines() == [f"qglab: {message}"]


@pytest.mark.parametrize(
    "verb, key, value, message",
    [
        ("line", "grid_size", "4097", "line_models: grid_size must be even, got 4097"),
        ("line", "half_width", "-1", "line_models: half_width must be positive and finite, got -1"),
        ("line", "sigma", "0", "line_models: sigma must be positive and finite, got 0"),
        ("line", "sigma", "-0.5", "line_models: sigma must be positive and finite, got -0.5"),
        ("dispersion", "n_terms", "0", "dispersion_series: n_terms must be at least 1, got 0"),
        ("dispersion", "tau_count", "0", "dispersion_series: tau_count must be at least 1, got 0"),
        ("bands", "tau_count", "0", "bands: tau_count must be at least 1, got 0"),
        ("verify-appendix", "tau_count", "0", "btilde_identity: tau_count must be at least 1, got 0"),
        ("mmatrix", "tau_count", "0", "additivity: tau_count must be at least 1, got 0"),
        ("bands", "n_bands", "0", "bands: n_bands must be at least 1, got 0"),
        # the Dirichlet levels below an infinite z_max never end: the run hung
        ("bands", "z_max", "inf", "bands: z_max must be positive and finite, got inf"),
        ("bands", "z_max", "0", "bands: z_max must be positive and finite, got 0"),
        ("bands", "z_max", "-5", "bands: z_max must be positive and finite, got -5"),
        ("converge", "eps_list", "0.1, 0.05, 0.025, -0.0125",
         "gen_res_rate: eps_list must be positive and finite, got [0.1, 0.05, 0.025, -0.0125]"),
        ("mmatrix", "eps_list", "-0.1", "additivity: eps_list must be positive and finite, got -0.1"),
        ("dispersion", "eps", "-0.1", "dispersion_series: eps must be positive and finite, got -0.1"),
        ("resolvent", "eps", "-0.1", "krein_vs_direct: eps must be positive and finite, got -0.1"),
        ("dispersion", "x_list", "3.141592653589793",
         "sum_identities: x_list must be finite and off the lattice points pi*j, "
         "got 3.141592653589793"),
        ("dispersion", "x_list", "0.3, 0",
         "sum_identities: x_list must be finite and off the lattice points pi*j, got [0.3, 0]"),
        ("dispersion", "x_list", "inf",
         "sum_identities: x_list must be finite and off the lattice points pi*j, got inf"),
        ("converge", "w", "2+1i", "full_res_rate: w must differ from z, both are (2+1j)"),
        # tau outside [-pi, pi], where datta_weights raises mid-run (or,
        # for beff_rate, where no weight reads it and the run passed)
        ("resolvent", "tau", "5.0", "krein_vs_direct: tau must lie in [-pi, pi], got 5.0"),
        ("converge", "tau_list", "0.3, 4.0",
         "gen_res_rate: tau_list must lie in [-pi, pi], got [0.3, 4.0]"),
        ("dispersion", "tau_list", "0.3, 4.0",
         "schur_check: tau_list must lie in [-pi, pi], got [0.3, 4.0]"),
        ("verify-appendix", "tau_list", "0.3, 4.0",
         "beff_rate: tau_list must lie in [-pi, pi], got [0.3, 4.0]"),
        ("verify-appendix", "tau_list", "-3.1416",
         "beff_rate: tau_list must lie in [-pi, pi], got -3.1416"),
        ("converge", "tau_list", "nan", "gen_res_rate: tau_list must lie in [-pi, pi], got nan"),
    ],
)
def test_out_of_range_value_exits_2_without_a_traceback(
    tmp_path, capsys, monkeypatch, verb, key, value, message
):
    # no runner may see these: each would raise mid-run, fail with NaN
    # slopes and no reason (sigma = 0) or pass on a squared width (sigma < 0)
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda tag, cfg: ran.append(tag))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = {value}\n")
    assert main([verb, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [f"qglab: {message}"]


def test_a_scan_with_fewer_than_n_bands_roots_is_a_fail_line_naming_it(tmp_path, capsys):
    # below z_max = 5 the scan finds one root at tau = 0 and none at the
    # ends of the grid: the Hausdorff distance was inf and the slope fit
    # read inf - inf, a nan slope with no reason (a traceback under -W error)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tau_count = 3\nresolution = 64\nz_max = 5\n")
    assert main(["bands", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    for name in ("ex0", "ex2"):
        for tau, count in (("-3.14059", 0), ("0", 1), ("3.14059", 0)):
            assert (
                f"{name}: limiting roots failed at tau={tau}: ArithmeticError: the scan "
                f"found {count} of n_bands = 3 roots in [0, 5]" in text
            )
        assert f"{name}: Hausdorff slope {REUSE} = nan (band [1.7, 2.3]) FAIL" in text
    assert "Traceback" not in text


def test_a_zero_row_experiment_empties_the_csv_of_an_earlier_run(tmp_path, capsys):
    # btilde_identity has no cell without a stiff cycle among examples = ex1:
    # its FAIL line comes with no rows, and its CSV must not keep the rows
    # the first run wrote
    out = tmp_path / "runs"
    assert main(["verify-appendix", "--out", str(out)]) == 0
    assert len((out / "btilde_identity.csv").read_text().splitlines()) == 1001
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex1\n")
    assert main(["verify-appendix", "--config", str(cfg), "--out", str(out)]) == 1
    assert "[FAIL] btilde_identity" in capsys.readouterr().out
    assert (out / "btilde_identity.csv").read_text() == ""
    rows = (out / "beff_rate.csv").read_text().splitlines()
    assert len(rows) > 1 and all(row.startswith("ex1,") for row in rows[1:])


def test_unknown_example_exits_2_before_any_experiment(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda tag, cfg: ran.append(tag))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex0, ex9\n")
    assert main(["mmatrix", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert ran == []
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "qglab: additivity: unknown example ex9; accepted: ex0, ex1, ex2"
    ]


def test_single_resolution_is_a_fail_with_its_reason(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("resolutions = 256\n")
    assert main(["resolvent", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "[FAIL] krein_vs_direct",
        "    needs at least two resolutions for a halving ratio, got [256]",
    ]


def test_shared_config_goes_only_to_tags_that_take_it(tmp_path, capsys, monkeypatch):
    given = {}

    def recording(tag, cfg):
        given[tag] = cfg
        return run_experiment(tag, cfg)

    monkeypatch.setattr(cli, "run_experiment", recording)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("x_list = 0.3\n")
    out = tmp_path / "runs"
    assert main(["dispersion", "--config", str(cfg), "--out", str(out)]) == 0
    assert given == {
        "dispersion_series": {},
        "schur_check": {},
        "sum_identities": {"x_list": [0.3]},
    }
    assert len((out / "sum_identities.csv").read_text().splitlines()) == 2


# the FEM reuse note of a bands slope at tau_count = 3
REUSE = "(FEM spectra at 2 of 3 tau; the other 1 from the conjugate pencil at -tau)"


def test_failed_bands_points_fail_the_verb_without_a_traceback(
    tmp_path, capsys, monkeypatch
):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence (forced)", np.empty(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tau_count = 3\nresolution = 64\n")
    assert main(["bands", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] bands" in text
    assert (
        "ex0: FEM spectrum failed at eps=0.125, |tau|=3.14059: ArithmeticError: "
        "eigsh did not converge: ARPACK error -1: no convergence (forced)" in text
    )
    assert f"ex2: Hausdorff slope {REUSE} = nan (band [1.7, 2.3]) FAIL" in text


def test_failed_band_roots_fail_the_verb_without_a_traceback(tmp_path, capsys, monkeypatch):
    original = dispersion.band_roots

    def failing(graph, tau, *args, **kwargs):
        if graph.example == "ex2" and tau == 0.0:
            raise PoleError("argument within 1e-08 of a pole (forced)")
        return original(graph, tau, *args, **kwargs)

    monkeypatch.setattr(dispersion, "band_roots", failing)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tau_count = 3\nresolution = 64\n")
    assert main(["bands", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] bands" in text
    assert "ex2: limiting roots failed at tau=0: PoleError: argument within" in text
    assert f"ex2: Hausdorff slope {REUSE} = nan (band [1.7, 2.3]) FAIL" in text
    assert "Traceback" not in text


def test_nan_in_a_band_root_bracket_fails_the_verb_without_a_traceback(
    tmp_path, capsys, monkeypatch
):
    # the scan (array z) is clean, but K is NaN near the ex2 root at
    # z ~ 77.44 for tau = 0, where only the refinement (scalar z) looks
    original = dispersion.k_closed

    def holed(graph, tau, z, eps=None):
        if graph.example == "ex2" and tau == 0.0 and np.ndim(z) == 0 and 77 < z.real < 78:
            return complex(math.nan, 0.0)
        return original(graph, tau, z, eps=eps)

    monkeypatch.setattr(dispersion, "k_closed", holed)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("tau_count = 3\nresolution = 64\n")
    assert main(["bands", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] bands" in text
    assert "ex2: limiting roots failed at tau=0: ArithmeticError: NaN value at z=77." in text
    assert f"ex2: Hausdorff slope {REUSE} = nan (band [1.7, 2.3]) FAIL" in text
    assert text.count("limiting roots failed") == 1
    assert "Traceback" not in text


def test_failed_krein_vs_direct_fails_the_verb_without_a_traceback(tmp_path, capsys):
    # z is the lowest discrete eigenvalue of ex0 at eps = 0.3, tau = 1,
    # resolution 64, where the finite-element solve is singular
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex0\nz = 1.8062813890270677\nresolutions = 64, 128\n")
    assert main(["resolvent", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] krein_vs_direct" in text
    assert (
        "ex0: resolvents failed at resolution=64, z=(1.8062813890270677+0j): "
        "NearSingularError: shifted system nearly singular" in text
    )
    assert "ex0: halving ratios = [nan] (band [3, 5]) FAIL" in text
    assert "Traceback" not in text


def test_resolvent_rates_and_schur_at_a_pole_fail_their_verbs_without_a_traceback(
    tmp_path, capsys
):
    # (2 pi)^2 is the lowest Dirichlet level of the ex0 soft edge: every
    # closed form there raises PoleError
    z = (2.0 * math.pi) ** 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"examples = ex0\nz = {z!r}\ntau_list = 1.0\n"
        "eps_list = 0.125, 0.0625, 0.03125, 0.015625\n"
    )
    assert main(["converge", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] gen_res_rate" in text and "[FAIL] full_res_rate" in text
    assert f"ex0: resolvents failed at tau=1, eps=0.125, z={complex(z)}: PoleError" in text
    assert "ex0: slopes = [nan] (band [1.8, 2.2]) FAIL" in text
    assert "Traceback" not in text
    cfg.write_text(f"examples = ex0\nz_list = {z!r}\n")
    assert main(["dispersion", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] dispersion_series" in text and "[FAIL] schur_check" in text
    assert f"ex0: Schur scalar failed at tau=0.3, eps=0.1, z={complex(z)}: PoleError" in text
    assert "Traceback" not in text


@pytest.mark.parametrize("name", ["ex1", "ex2"])
def test_singular_boundary_system_fails_the_verb_without_a_traceback(tmp_path, capsys, name):
    # deep in the gap a boundary system of the effective model is exactly
    # singular (gen_res_rate at ex1, full_res_rate at ex2)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"examples = {name}\nz = -32400+3i\n")
    assert main(["converge", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] gen_res_rate" in text and "[FAIL] full_res_rate" in text
    assert "PoleError: boundary system singular (Singular matrix)" in text
    assert "Traceback" not in text


def test_line_models_with_a_datum_beyond_the_model_band_fail_without_a_traceback(
    tmp_path, capsys
):
    # a packet of width 0.05 carries energy beyond the band |t| <= pi/eps of
    # the three largest default eps; the smaller three keep it all
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("examples = ex1\nsigma = 0.05\n")
    assert main(["line", "--config", str(cfg)]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] line_models" in text
    failed = [line.strip() for line in text.splitlines() if "ArithmeticError" in line]
    assert [line.split(": ArithmeticError: ")[0] for line in failed] == [
        f"ex1: line model failed at eps={eps:g}, z={z}"
        for z in (2 + 1j, 5 + 2j, 10 + 0.7j) for eps in (0.125, 0.0625, 0.03125)
    ]
    assert all("relative energy beyond |t| = " in line for line in failed)
    assert "ex1 model-vs-limit slopes = [nan, nan, nan] (band [1.8, 2.2]) FAIL" in text
    assert "Traceback" not in text
