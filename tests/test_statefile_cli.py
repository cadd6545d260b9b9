import json

import numpy as np
import pytest

from qsteer.cli import main
from qsteer.errors import NotPSD, ValidationError, WrongDimension
from qsteer.qcore import validate_density
from qsteer.rand import random_density_matrix, random_product, random_two_qubit
from qsteer.statefile import load_state, save_state, state_from_dict, state_to_dict
from qsteer.states import damped_classical_msc, rho_p, werner


def test_round_trip_exact(rng, tmp_path):
    for dims in ((2, 2), (2, 3), (4,)):
        st = random_density_matrix(rng, dims)
        path = tmp_path / "state.json"
        save_state(st, path)
        back = load_state(path)
        assert back.dims == st.dims
        assert np.abs(back.matrix - st.matrix).max() == 0.0


def test_dict_round_trip(rng):
    st = random_two_qubit(rng)
    back = state_from_dict(state_to_dict(st))
    assert np.abs(back.matrix - st.matrix).max() <= 1e-12


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_state(path)
    path.write_text(json.dumps({"dims": [2], "matrix": [[1, 2], [3, 4]]}))
    with pytest.raises(WrongDimension):
        load_state(path)


def test_load_rejects_unphysical(tmp_path):
    doc = {"dims": [2], "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NotPSD):
        load_state(path)


def test_cli_msc_werner(capsys):
    assert main(["msc", "--family", "werner", "--p", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "msc value:          0.700000" in out
    assert "degenerate branch:  yes" in out


def test_cli_msc_classical(capsys):
    assert main(["msc", "--family", "classical-c", "--t", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "msc value:          0.000000000" in out


def test_cli_msc_from_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    save_state(rho_p(0.5, np.pi / 2).state, path)
    assert main(["msc", str(path)]) == 0
    assert "msc value:          0.500000" in capsys.readouterr().out


def test_cli_gen_then_msc_round_trip(tmp_path, capsys):
    path = tmp_path / "gen.json"
    assert main(["gen", "--family", "rho-p", "--p", "0.5", "--theta", "0.5pi", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["msc", str(path)]) == 0
    assert "0.500000" in capsys.readouterr().out


def test_cli_qse_obese(capsys):
    assert main(["qse", "--family", "obese", "--b", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "center:    (0.000000000, 0.000000000, 0.500000000)" in out
    assert f"semiaxes:  ({np.sqrt(0.5):.9f}, {np.sqrt(0.5):.9f}, 0.500000000)" in out


def test_cli_qse_werner(capsys):
    assert main(["qse", "--family", "werner", "--p", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "semiaxes:  (0.300000000, 0.300000000, 0.300000000)" in out
    assert "center:    (0.000000000, 0.000000000, 0.000000000)" in out


def test_cli_qse_product_state(tmp_path, capsys, rng):
    path = tmp_path / "product.json"
    save_state(random_product(rng), path)
    assert main(["qse", str(path)]) == 0
    out = capsys.readouterr().out
    assert "semiaxes:  (0.000000000, 0.000000000, 0.000000000)" in out


def test_cli_sweep_matches_closed_form(capsys):
    assert main(["sweep", "--family", "classical-c", "--t", "0.75", "--grid", "21"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "gamma,msc"
    gammas, vals = [], []
    for row in lines[1:]:
        g, v = row.split(",")
        gammas.append(float(g))
        vals.append(float(v))
    assert gammas == sorted(gammas)
    assert len(gammas) == 21
    for g, v in zip(gammas, vals):
        assert v == pytest.approx(damped_classical_msc(0.75, g), abs=1e-6)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(0.0, abs=1e-9)


def test_cli_sweep_deterministic_to_file(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (p1, p2):
        assert main(["sweep", "--family", "rho-p", "--p", "0.5", "--theta", "0.1pi",
                     "--grid", "11", "--out", str(p)]) == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1
    assert b1.startswith(b"gamma,msc\n")


def test_cli_sweep_gain_exists(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["sweep", "--family", "rho-p", "--p", "0.5", "--theta", "0.1pi",
                 "--grid", "41", "--out", str(out)]) == 0
    rows = out.read_text().strip().split("\n")[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert max(vals) > vals[0] + 1e-4


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["msc", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2], "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}))
    assert main(["msc", str(bad)]) == 2
    # Unreadable input or output: a binary state file, a directory as the
    # state file or as the CSV output.
    binary = tmp_path / "binary.json"
    binary.write_bytes(bytes(range(256)))
    assert main(["msc", str(binary)]) == 2
    assert main(["msc", str(tmp_path)]) == 2
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--grid", "3", "--out", str(tmp_path)]) == 2
    assert main(["msc", "--family", "werner"]) == 2  # missing --p
    assert main(["msc"]) == 2  # no input at all
    assert main(["qse", "--family", "werner", "--p", "2.0"]) == 2
    # Hostile numbers: a negative or zero grid, unparsable or non-finite text.
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--grid", "-1"]) == 2
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--grid", "0"]) == 2
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--channel", "unital", "--e", "a,0,0,0"]) == 2
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--channel", "unital", "--e", "nan,0,0,1"]) == 2
    # Mixture weights are checked once, before the grid: here only gamma = 0
    # would be built. --e belongs to the unital channel only.
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--grid", "1", "--channel", "unital",
                 "--e", "0.5,0.6,0,0"]) == 2
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--channel", "amplitude-damping",
                 "--e", "0.4,0.3,0.2,0.1"]) == 2
    assert main(["msc", "--family", "rho-p", "--p", "0.5", "--theta", "x"]) == 2
    assert main(["msc", "--family", "rho-p", "--p", "0.5", "--theta", "inf"]) == 2
    # Input that numpy or math would refuse with a traceback: a chord length past 1, an
    # angle that overflows once times pi, a negative seed.
    assert main(["msc", "--family", "chord", "--b", "1.5"]) == 2
    assert main(["msc", "--family", "rho-p", "--p", "0.5", "--theta", "1e308pi"]) == 2
    assert main(["msc", "--family", "dlc", "--b1", "0.5", "--b2", "0.5", "--q", "0.5", "--theta", "1e308pi"]) == 2
    assert main(["verify", "--only", "thm2", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    for flag in ("--b:", "--theta:", "--seed:"):
        assert flag in err
    # A bare sign before pi is +-1 pi.
    assert main(["msc", "--family", "rho-p", "--p", "0.5", "--theta=-pi"]) == 0
    minus_pi = capsys.readouterr().out
    assert main(["msc", "--family", "rho-p", "--p", "0.5", "--theta=-1pi"]) == 0
    assert capsys.readouterr().out == minus_pi
    assert main(["msc", "--family", "pure-schmidt", "--lambdas", "0.6,x"]) == 2
    assert main(["msc", "--family", "x-state", "--diag", "a,0.25,0.25,0.25", "--anti", "0,0"]) == 2
    assert main(["msc", "--family", "x-state", "--diag", "0.25,0.25,0.25,0.25", "--anti", "0,q"]) == 2
    capsys.readouterr()
    # A pure Alice marginal makes every point of a sweep a trivial product.
    pure_alice = tmp_path / "pure_alice.json"
    bob = random_density_matrix(np.random.default_rng(1), (2,)).matrix
    save_state(validate_density(np.kron(np.diag([1.0, 0.0]), bob), (2, 2)), pure_alice)
    assert main(["sweep", str(pure_alice), "--grid", "5"]) == 2
    assert "Alice's marginal is pure" in capsys.readouterr().err


def test_cli_linear_algebra_failure_exits_2(monkeypatch, capsys):
    # A numpy LinAlgError (an eigensolver that did not converge) is an error
    # with a message, not a traceback.
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["msc", "--family", "werner", "--p", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err == "error: linear algebra failed: Eigenvalues did not converge\n"


def test_cli_nonconvergence_exit_code(monkeypatch, capsys):
    import dataclasses

    import qsteer.cli as cli

    real = cli.msc_two_qubit

    def fake(state, *args):
        return dataclasses.replace(real(state, *args), converged=False)

    monkeypatch.setattr(cli, "msc_two_qubit", fake)
    assert main(["msc", "--family", "werner", "--p", "0.5"]) == 3
    capsys.readouterr()

    real_sweep = cli.msc_sweep

    def fake_sweep(state, q, c):
        values, converged = real_sweep(state, q, c)
        converged[2] = False
        return values, converged

    monkeypatch.setattr(cli, "msc_sweep", fake_sweep)
    assert main(["sweep", "--family", "werner", "--p", "0.5", "--grid", "5"]) == 3
    assert "gamma=0.5" in capsys.readouterr().err


def test_cli_verify_single_check(capsys):
    assert main(["verify", "--only", "fig2-ratios"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS fig2-ratios")
    assert "0.98" in out


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    import qsteer.verify as verify

    def failing(seed=0):
        return verify.CheckResult("fig2-ratios", False, 1.0, ["forced failure"])

    monkeypatch.setitem(verify.CHECKS, "fig2-ratios", failing)
    assert main(["verify", "--only", "fig2-ratios"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_gen_stdout(capsys):
    assert main(["gen", "--family", "werner", "--p", "0.4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    st = validate_density(
        np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]]), doc["dims"]
    )
    assert st.dims == (2, 2)


def test_cli_sweep_grid_counts_gamma_points_only(tmp_path):
    # --grid sets the number of gamma points and nothing else: each row of the
    # stacked sweep equals the per-point solve of the channel's output. The
    # inputs cover damping and unital sweeps, a degenerate row at gamma = 0
    # (Werner under damping), every row degenerate (Werner under a unital
    # channel) and the general path's Bob blocks (a 3x2 and a 4x2 state).
    from qsteer.channels import amplitude_damping, apply_on_b, unital_pauli
    from qsteer.msc import msc_general, msc_two_qubit

    e = (0.4, 0.3, 0.2, 0.1)

    def unital(g):
        return unital_pauli(1 - g + g * e[0], g * e[1], g * e[2], g * e[3])

    flags = ["--channel", "unital", "--e", ",".join(map(str, e))]
    inputs = [
        (rho_p(0.5, 0.1 * np.pi).state, [], amplitude_damping),
        (random_two_qubit(np.random.default_rng(3)), flags, unital),
        (werner(0.6).state, [], amplitude_damping),
        (werner(0.6).state, flags, unital),
        (random_density_matrix(np.random.default_rng(4), (3, 2)), [], amplitude_damping),
        (random_density_matrix(np.random.default_rng(5), (4, 2)), flags, unital),
    ]
    for k, (state, extra, make) in enumerate(inputs):
        path, out = tmp_path / f"s{k}.json", tmp_path / f"s{k}.csv"
        save_state(state, path)
        assert main(["sweep", str(path), "--grid", "5", "--out", str(out)] + extra) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == 5
        solve = msc_two_qubit if state.dims == (2, 2) else msc_general
        for g, v in rows:
            expected = solve(apply_on_b(state, make(float(g)))).value
            assert float(v) == pytest.approx(expected, abs=1e-12)


def test_cli_unital_sweep_interpolates_bloch_actions(monkeypatch, tmp_path):
    # (1 - g) id + g E is affine in g, so the CLI's (Q, c) rows equal the Bloch
    # action of the scaled mixture unital_pauli(1 - g + g e0, g e1, g e2, g e3).
    import qsteer.cli as cli
    from qsteer.channels import bloch_affine, unital_pauli

    seen = []

    def record(state, q, c):
        seen.append((q, c))
        return np.zeros(len(q)), np.ones(len(q), dtype=bool)

    monkeypatch.setattr(cli, "msc_sweep", record)
    e = (0.4, 0.3, 0.2, 0.1)
    assert main(["sweep", "--family", "rho-p", "--p", "0.5", "--theta", "0.1pi", "--grid", "11", "--channel",
                 "unital", "--e", ",".join(map(str, e)), "--out", str(tmp_path / "s.csv")]) == 0
    (q, c), = seen
    for g, qg, cg in zip(np.linspace(0.0, 1.0, 11), q, c):
        q_ref, c_ref = bloch_affine(unital_pauli(1 - g + g * e[0], g * e[1], g * e[2], g * e[3]))
        assert np.abs(qg - q_ref).max() <= 1e-15
        assert np.abs(cg - c_ref).max() <= 1e-15


def test_cli_msc_converges_on_4x4(rng, tmp_path, capsys):
    path = tmp_path / "s.json"
    save_state(random_density_matrix(rng, (4, 4)), path)
    assert main(["msc", str(path)]) == 0
    assert "msc value:" in capsys.readouterr().out


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_cli_rejects_nan_entries(tmp_path, capsys, entry):
    doc = state_to_dict(rho_p(0.5, np.pi / 2).state)
    doc["matrix"][entry[0]][entry[1]] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    assert main(["msc", str(path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err
