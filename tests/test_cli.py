from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import gwseries
import gwseries.cli as cli
import gwseries.d4 as d4
import gwseries.e6 as e6
import gwseries.modular as modular
from gwseries.cli import DEFAULT_ORDER, ORDER_ENV_VAR, RunConfig, main, parse_args, run
from gwseries.modular import EtaQuotient, eta_expand
from gwseries.qseries import PrecisionError, QSeries


def _run(capsys, **kwargs):
    status = run(RunConfig(**kwargs))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# -- expand ------------------------------------------------------------------------


def test_expand_text_reference_string(capsys):
    status, out, _ = _run(capsys, command="expand", order=8,
                          expression="eta(9)^3 * eta(3)^-1")
    assert status == 0
    assert out == "q + q^4 + 2q^7 + O(q^8)\n"


def test_expand_order_is_the_absolute_truncation(capsys):
    status, out, _ = _run(capsys, command="expand", order=30,
                          expression="eta(3)^24")
    assert status == 0
    assert out.startswith("3q^3 ") or out.startswith("q^3")
    # eta(3)^24 = q^3 prod(1-q^(3n))^24: check against the library expansion
    reference = eta_expand("eta(3)^24", 27).to_qseries()
    assert f"O(q^30)" in out
    assert out.split(" + O", 1)[0].startswith(cli.format_series(reference).split(" + O", 1)[0])


def test_expand_fractional_offset_prints_unit_form(capsys):
    status, out, _ = _run(capsys, command="expand", order=10, expression="eta(2)")
    assert status == 0
    assert out.startswith("q^(1/12) * (1 - q^2")


def test_expand_bad_expression_is_a_usage_error(capsys):
    for expression in ("zeta(2)", "eta(1)^1/0"):
        status, out, err = _run(capsys, command="expand", order=10, expression=expression)
        assert status == 2
        assert out == ""
        assert "error:" in err


def test_expand_order_must_clear_the_leading_exponent(capsys):
    status, _, err = _run(capsys, command="expand", order=2, expression="eta(1)^48")
    assert status == 2
    assert "does not reach past" in err


def test_expand_json_round_trips_byte_identically(capsys):
    status, out, _ = _run(capsys, command="expand", order=12, format="json",
                          expression="eta(9)^3 * eta(3)^-1")
    assert status == 0
    payload = json.loads(out)
    assert json.dumps(payload, indent=2) + "\n" == out
    series = QSeries.from_json_dict(payload["series"])
    assert series == eta_expand("eta(9)^3 * eta(3)^-1", 11).to_qseries()


def test_expand_csv_lists_known_terms(capsys):
    status, out, _ = _run(capsys, command="expand", order=8, format="csv",
                          expression="eta(9)^3 * eta(3)^-1")
    assert status == 0
    assert out == (
        "series,exponent,coefficient\n"
        "eta(9)^3 * eta(3)^-1,1,1\n"
        "eta(9)^3 * eta(3)^-1,4,1\n"
        "eta(9)^3 * eta(3)^-1,7,2\n"
    )


# -- solve -------------------------------------------------------------------------


def test_solve_d4_text(capsys):
    status, out, _ = _run(capsys, command="solve", model="d4", order=8)
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "a = q + 4q^3 + 6q^5 + 8q^7 + O(q^8)"
    assert lines[1].startswith("b = -1/24 ")
    assert lines[2].startswith("c = 3q^2 ")


def test_solve_e6_csv_streams_the_pole_series(capsys):
    status, out, _ = _run(capsys, command="solve", model="e6", order=9, format="csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "series,exponent,coefficient"
    assert lines[1] == "a,-1,1/3"
    assert lines[2] == "a,2,5/3"
    assert lines[3] == "a,5,-7/3"
    assert lines[4] == "a,8,1"


def test_solve_json_names_every_series(capsys):
    status, out, _ = _run(capsys, command="solve", model="d4", order=6, format="json")
    assert status == 0
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert sorted(payload["series"]) == ["a", "b", "c"]
    assert payload["series"]["b"]["coeffs"][0] == "-1/24"


# -- verify ------------------------------------------------------------------------


def test_verify_halphen_text(capsys):
    status, out, _ = _run(capsys, command="verify", model="halphen", order=20)
    assert status == 0
    assert "[halphen-system]" in out
    assert "[eta-forms]" in out
    assert "[theta-bridges]" in out
    assert "FAIL" not in out
    assert "pass  halphen-x2x3 (order 20)" in out


def test_verify_csv_header_and_rows(capsys):
    status, out, _ = _run(capsys, command="verify", model="halphen", order=12,
                          format="csv")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "name,order,status,failure_exponent"
    assert all(line.endswith(",pass,") for line in lines[1:])


def test_verify_json_groups_by_suite(capsys):
    status, out, _ = _run(capsys, command="verify", model="d4", order=8, format="json")
    assert status == 0
    payload = json.loads(out)
    names = [suite["name"] for suite in payload["suites"]]
    assert names == [
        "d4-construction",
        "d4-odes-and-bridges",
        "d4-elliptic-weyl",
        "d4-genus-one",
        "d4-potential",
    ]
    for suite in payload["suites"]:
        for report in suite["reports"]:
            assert report["status"] == "pass"


def test_verify_exit_code_points_at_the_failed_suite(capsys):
    status, out, _ = _run(capsys, command="verify", model="e6", order=8,
                          strict_typo_mode=True)
    assert status == 14  # e6-potential is the fifth suite in the stream
    assert "FAIL  wdvv" in out
    assert "pass  e6-j-relation" in out


def test_wrong_eta_form_is_a_localized_failure(capsys, monkeypatch):
    original = d4.d4_eta_forms

    def perturbed(order):
        forms = original(order)
        bump = QSeries.monomial(Fraction(1), 5, forms.a.truncation)
        return d4.D4Coefficients(forms.a + bump, forms.b, forms.c)

    monkeypatch.setattr(d4, "d4_eta_forms", perturbed)
    status, out, _ = _run(capsys, command="verify", model="d4", order=16)
    assert status == 10
    assert "FAIL  d4-eta-form-a (order 16; first failure at q^5, residual 1)" in out
    assert "pass  d4-eta-form-b (order 16)" in out


def _failures(out: str) -> list[str]:
    return [line.strip() for line in out.splitlines() if line.lstrip().startswith("FAIL")]


def test_wrong_d4_eta_exponent_is_a_localized_failure(capsys, monkeypatch):
    wrong = EtaQuotient.parse("eta(1) * eta(2)^-3/2 * eta(4)^1/4")  # eta(4)^1/2 is right
    monkeypatch.setitem(d4._D4_ETA_FORMS, "a", wrong)
    status, out, _ = _run(capsys, command="verify", model="d4", order=40)
    assert status == 10
    # the first failure the expand-then-logderiv route finds
    exponent, residual = (-wrong.expand(40).logderiv()).first_difference(d4.d4_analytic(40).a)
    assert (exponent, residual) == (0, Fraction(1, 24))
    assert _failures(out) == [
        f"FAIL  d4-eta-form-a (order 40; first failure at q^{exponent}, residual {residual})"
    ]


def test_wrong_theta_eta_exponent_is_a_localized_failure(capsys, monkeypatch):
    wrong = EtaQuotient(((1, Fraction(-2)), (2, Fraction(5)), (4, Fraction(-1))))  # eta(4)^-2 is right
    monkeypatch.setitem(modular._THETA_ETA_FORMS, 3, wrong)
    status, out, _ = _run(capsys, command="verify", model="halphen", order=40)
    assert status == 10
    x3 = modular.halphen_variables(40)[3]
    exponent, residual = x3.first_difference(wrong.expand(40).logderiv())
    assert (exponent, residual) == (0, Fraction(-1, 6))
    assert _failures(out) == [
        f"FAIL  theta-eta-x3 (order 40; first failure at q^{exponent}, residual {residual})"
    ]


def test_wrong_closed_form_is_a_localized_failure(capsys, monkeypatch):
    original = e6.e6_h_analytic

    def perturbed(order):
        closed = original(order)
        return closed + QSeries.monomial(Fraction(1, 7), 2, closed.truncation)

    monkeypatch.setattr(e6, "e6_h_analytic", perturbed)
    status, out, _ = _run(capsys, command="verify", model="e6", order=12)
    assert status == 10
    assert "FAIL  e6-solver-matches-eta (order 12; first failure at q^2," in out


@pytest.mark.parametrize("module, builder, perturb, line", [
    (e6, "e6_h_analytic", lambda a: a + QSeries.monomial(Fraction(1, 7), -1, a.truncation),
     "FAIL  e6-solver-matches-eta (order 12; first failure at q^-1, residual -1/7)"),
    (e6, "e6_build_fi", lambda s: s._replace(f=(s.f[0].scale(2), *s.f[1:])),
     "FAIL  e6-f0-sqrt-route (order 12; first failure at q^1, residual -1)"),
    (d4, "d4_analytic", lambda s: s._replace(b=s.b + QSeries.constant(Fraction(1, 1000), s.b.truncation)),
     "FAIL  d4-recursion-b (order 16; first failure at q^0, residual -1/1000)"),
    (d4, "d4_analytic", lambda s: s._replace(a=s.a.scale(2)),
     "FAIL  d4-recursion-a (order 16; first failure at q^1, residual -1)"),
], ids=["e6-pole", "e6-f0", "d4-b-constant", "d4-a-leading"])
def test_wrong_normalization_is_a_localized_failure(capsys, monkeypatch, module, builder, perturb, line):
    """A wrong leading coefficient reaches the suite that certifies it as a
    FAIL line; no coefficient record checks it on construction."""
    original = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda order: perturb(original(order)))
    model, order = ("e6", 12) if module is e6 else ("d4", 16)
    status, out, _ = _run(capsys, command="verify", model=model, order=order)
    assert status == 10
    assert line in out


def test_wrong_first_order_system_is_a_localized_failure(capsys, monkeypatch):
    original = e6._e6_rhs

    def perturbed(f0, f1, f2):
        # 9 f2^2 -> 8 f2^2: f2 = O(q^2), so the seeds and J0 stay as they were
        d0, d1, d2 = original(f0, f1, f2)
        return d0, d1, d2 + f2 * f2

    monkeypatch.setattr(e6, "_e6_rhs", perturbed)
    status, out, _ = _run(capsys, command="verify", model="e6", order=12)
    assert status == 10
    assert "FAIL  e6-solver-matches-eta (order 12; first failure at q^5, residual 1/36)" in out


@pytest.mark.parametrize("row, exponent", [
    (("e6-pole-twist-square", 1, -2, -3, 6), -1),  # branch zeta_72^-3: the scalar is not rational
    (("e6-pole-twist-square", 2, -2, -2, 6), 0),  # constant omega^2 in place of omega
])
def test_wrong_twisted_row_is_a_localized_failure(capsys, monkeypatch, row, exponent):
    monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", (row, e6._TWISTED_POLE_ROWS[1]))
    status, out, _ = _run(capsys, command="verify", model="e6", order=20)
    assert status == 11
    assert f"FAIL  e6-pole-twist-square (order 20; first failure at q^{exponent}," in out
    assert "pass  e6-pole-twist-linear (order 20)" in out


@pytest.mark.parametrize("model, order, key, exponent", [
    ("e6", 40, (0, 1, 1, 1, 0, 0, 0, 0), 30),  # t1 t2 t3
    ("d4", 100, (0, 1, 1, 1, 1, 0), 90),  # t1 t2 t3 t4
    ("d4", 100, (0, 4, 0, 0, 0, 0), 90),  # t1^4
    ("d4", 100, (0, 2, 2, 0, 0, 0), 90),  # t1^2 t2^2
])
def test_wdvv_suite_certifies_the_requested_order(capsys, monkeypatch, model, order, key, exponent):
    module = {"d4": d4, "e6": e6}[model]
    original = getattr(module, f"{model}_build_potential")

    def perturbed(*args, **kwargs):
        return original(*args, **kwargs).with_mutated_quantum(key, exponent, Fraction(1, 7))

    monkeypatch.setattr(module, f"{model}_build_potential", perturbed)
    status, out, _ = _run(capsys, command="verify", model=model, order=order)
    assert status == 14
    failing = [line for line in out.splitlines() if line.startswith("  FAIL")]
    assert len(failing) == 1 and failing[0].startswith(f"  FAIL  wdvv (order {order}; "), failing
    assert any(f"first failure at q^{e}," in failing[0] for e in (exponent, exponent + 1)), failing


def test_internal_failures_exit_three(capsys, monkeypatch):
    def _boom(order):
        raise PrecisionError("synthetic precision collapse")

    monkeypatch.setattr(d4, "halphen_suites", _boom)  # cli imports it per command
    status, out, err = _run(capsys, command="verify", model="halphen", order=12)
    assert status == 3
    assert "internal error: synthetic precision collapse" in err


# -- gw-table ----------------------------------------------------------------------


def test_gw_table_csv_reference(capsys):
    status, out, _ = _run(capsys, command="gw-table", kmax=2, format="csv")
    assert status == 0
    assert out == "k,c_k\n0,1\n1,1\n2,2\n"


def test_gw_table_text_includes_certificate(capsys):
    status, out, _ = _run(capsys, command="gw-table", kmax=4)
    assert status == 0
    assert "c_0 = 1" in out
    assert "c_3 = 0" in out
    assert "pass  e6-gw-dual-route" in out


def test_gw_table_json(capsys):
    status, out, _ = _run(capsys, command="gw-table", kmax=3, format="json")
    assert status == 0
    payload = json.loads(out)
    assert payload["table"] == [
        {"k": 0, "c_k": "1"},
        {"k": 1, "c_k": "1"},
        {"k": 2, "c_k": "2"},
        {"k": 3, "c_k": "0"},
    ]
    assert payload["report"]["status"] == "pass"


# -- byte identity -----------------------------------------------------------------

# sha256 of stdout, recorded before the two models shared one first-order solver;
# the `verify` digests were recorded once WDVV certified the requested order
PINNED_STDOUT = [
    (dict(command="solve", model="e6", order=2),
     "3d7734386426fb8c54506fd4ad33cdc62907c43b78c451f3034b1eb7204941a6"),
    (dict(command="solve", model="e6", order=3),
     "a531479241b137bd261f51ec0e3a3d43bb46ccb17826df511cd8b53f0ec72936"),
    (dict(command="solve", model="e6", order=80),
     "c0b5b3cf018c85ce311ab52d914c1ef84bdede15d3a2ad983b3684826eb2cd69"),
    (dict(command="solve", model="e6", order=122),
     "67fef75d5e23734ed7c9ad30f096b53edbc223a3775da7c6fb28560eb0e46329"),
    (dict(command="solve", model="d4", order=2, format="json"),
     "9cf8d4904a123ba7a834634f951a240d21178b2a415ae671be0b5c7fd3bdf1d3"),
    (dict(command="solve", model="d4", order=125, format="json"),
     "600497ab3e6cdda01fd395d7ec2264bb3dbc71d5f5182428ebc53eb1f5fa4b9d"),
    (dict(command="gw-table", kmax=30),
     "4157eddfdea96402d477e933089fb296da48e1e63cd0ede5fa3173a68b029303"),
    (dict(command="solve", model="e6", order=242),
     "89b49119c9af20cb65f60d0bfbc57d4cee212bf51da7a5e3c49a0d2bb17ab175"),
    (dict(command="solve", model="d4", order=200, format="json"),
     "efaef83e2b1390216fe7b7c32cc5ccf899859af1770b3f6f6377655bb7a5489f"),
    (dict(command="gw-table", kmax=100),
     "27752564e1e3d0c846134ab695bcc2b78386f5e5bc14e58392d0a680667a7de6"),
    (dict(command="verify", model="e6", order=60),
     "e4cd6062db793382f6f58c56ff51fdbec588d26bd63e3cf2ac8f3465b3571f99"),
    (dict(command="verify", model="identities", order=60),
     "0555af0322f1232b5fe2e7c9c8275ec15e75aa43e3c764c1b8adbd348211dc41"),
    (dict(command="verify", model="d4", order=125),
     "c448b2292ed99d834559385ba09c107ff918389ee444f58a639f7ccad8d42f6a"),
    (dict(command="verify", model="halphen", order=175),
     "7b899a8648eb46f5f8fd3d8a4aeb98c6e89f00059de96e27ad75de76955f88b8"),
    (dict(command="verify", model="identities", order=200),
     "538bd37b17ae8e86f190ddf204c16aa43fe149d7843364734ad4d3ceb5ee031c"),
    (dict(command="genus-one", model="d4", order=60, format="json"),
     "63a1c979b46d35dc4ac71fbdfc2d7cf68b60b3de8191a7a0c435f0a4c622e775"),
    (dict(command="genus-one", model="e6", order=60, format="json"),
     "60f59f5d8bc8d10df71e95bc02a3fd54ad0bfb62bafd4086455e1e372f5b3040"),
    (dict(command="expand", expression="eta(1)^24", order=420),
     "8753422598584128502a1e6ab60bdca9e14d3c8606c62fd167240989336b23da"),
    (dict(command="expand", expression="eta(2)^-3/2 * eta(4)^1/2", order=60),
     "799b27c445e24f1d4d873869388fc0611c9b308a1548f3ea15aecb1e83c49e3a"),
    (dict(command="verify", model="e6", order=64, strict_typo_mode=True, format="json"),
     "19354ba14eb3b3db8c84d90e5473ad834e5769df441db967172c07230ab8918c"),
]


@pytest.mark.parametrize("config, digest", PINNED_STDOUT)
def test_stdout_is_byte_identical_to_the_pinned_run(capsys, config, digest):
    status, out, _ = _run(capsys, **config)
    assert status == (14 if config.get("strict_typo_mode") else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_strict_typo_stdout_is_pinned(capsys):
    status, out, _ = _run(capsys, command="verify", model="e6", order=60, strict_typo_mode=True)
    assert status == 14
    assert ("  FAIL  wdvv (order 60; first failure at q^2, indices (1, 1, 4, 4), residual -1/6)\n"
            in out)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d2375ea21430ae1aa2835039b5d496509f85efd1e55d159bc20ff2aa9639f977")


# -- genus-one ---------------------------------------------------------------------


def test_genus_one_text(capsys):
    status, out, _ = _run(capsys, command="genus-one", model="d4", order=12)
    assert status == 0
    assert "linear log q coefficient: -1/24" in out
    assert "series: 1/2q^2" in out
    assert "pass  d4-genus-one" in out


def test_genus_one_json(capsys):
    status, out, _ = _run(capsys, command="genus-one", model="e6", order=12,
                          format="json")
    assert status == 0
    payload = json.loads(out)
    assert payload["linear_log_q_coefficient"] == "-1/24"
    assert payload["report"]["status"] == "pass"
    series = QSeries.from_json_dict(payload["series"])
    assert series.coefficient(3) == Fraction(1, 3)


# -- argument parsing ----------------------------------------------------------------


def test_parse_args_defaults():
    config = parse_args(["solve", "e6"])
    assert config == RunConfig(command="solve", order=DEFAULT_ORDER, model="e6")


def test_parse_args_env_override(monkeypatch):
    monkeypatch.setenv(ORDER_ENV_VAR, "24")
    assert parse_args(["solve", "e6"]).order == 24
    assert parse_args(["solve", "e6", "--order", "12"]).order == 12


def test_parse_args_rejects_bad_env(monkeypatch):
    monkeypatch.setenv(ORDER_ENV_VAR, "twelve")
    with pytest.raises(SystemExit) as excinfo:
        parse_args(["solve", "e6"])
    assert excinfo.value.code == 2


def test_parse_args_usage_errors():
    for argv in (
        ["frobnicate"],
        ["solve"],
        ["solve", "p2"],
        ["solve", "e6", "--order", "1"],
        ["gw-table", "--kmax", "-1"],
        ["verify", "everything"],
        ["verify", "e6", "--parallel"],
        ["solve", "e6", "--strict-typo-mode"],
        ["expand"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2


def test_parse_args_flags():
    config = parse_args(["verify", "e6", "--strict-typo-mode",
                         "--order", "8", "--format", "csv"])
    assert config.strict_typo_mode is True
    assert config.format == "csv"
    assert parse_args(["verify", "e6", "--order", "8"]).strict_typo_mode is False


def test_main_exits_with_run_status(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gw-table", "--kmax", "1"])
    assert excinfo.value.code == 0
    assert "c_1 = 1" in capsys.readouterr().out


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert gwseries.__version__ == tomllib.load(handle)["project"]["version"]
