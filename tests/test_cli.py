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
    reference = eta_expand("eta(3)^24", 27)
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
    assert series == eta_expand("eta(9)^3 * eta(3)^-1", 11)


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
    u = wrong.unit(40)
    expanded = u.qdq() * u.inv() + wrong.offset
    exponent, residual = (-expanded).first_difference(d4.d4_analytic(40).a)
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
    u = wrong.unit(40)
    exponent, residual = x3.first_difference(u.qdq() * u.inv() + wrong.offset)
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
    # 9 f2^2 -> 8 f2^2 in f2': f2 = O(q^2), so the seeds and J0 stay as they were
    d0, d1, d2 = e6._E6_SYSTEM
    monkeypatch.setattr(e6, "_E6_SYSTEM", (d0, d1, {**d2, (0, 0, 2): -8}))
    status, out, _ = _run(capsys, command="verify", model="e6", order=12)
    assert status == 10
    assert "FAIL  e6-solver-matches-eta (order 12; first failure at q^5, residual 1/36)" in out


# the whole FAIL line, residual text included, for each wrong row below; a
# prefactor outside Q(zeta_3) prints as r*z72^e, e in [0, 72), unreduced
_WRONG_ROW_FAILURES = {
    -1: "q^-1, indices (-48,), residual 1/3 + -1/3*z72^69",
    0: "q^0, indices (-48,), residual 1 + 2*z3^1",
}


@pytest.mark.parametrize("row, exponent", [
    (("e6-pole-twist-square", 1, -2, -3, 6), -1),  # branch zeta_72^-3: the scalar is not rational
    (("e6-pole-twist-square", 2, -2, -2, 6), 0),  # constant omega^2 in place of omega
])
def test_wrong_twisted_row_is_a_localized_failure(capsys, monkeypatch, row, exponent):
    monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", (row, e6._TWISTED_POLE_ROWS[1]))
    status, out, _ = _run(capsys, command="verify", model="e6", order=20)
    assert status == 11
    failure = _WRONG_ROW_FAILURES[exponent]
    assert f"  FAIL  e6-pole-twist-square (order 20; first failure at {failure})\n" in out
    assert "  pass  e6-pole-twist-linear (order 20)\n" in out



@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_exit_status_names_the_first_failing_suite_in_every_format(capsys, monkeypatch, fmt):
    # suite 1 fails on a wrong twisted row, suite 4 on the transcribed f11 block
    row = ("e6-pole-twist-square", 2, -2, -2, 6)
    monkeypatch.setattr(e6, "_TWISTED_POLE_ROWS", (row, e6._TWISTED_POLE_ROWS[1]))
    status, out, _ = _run(capsys, command="verify", model="e6", order=20,
                          strict_typo_mode=True, format=fmt)
    assert status == 11
    assert "e6-pole-twist-square" in out and "wdvv" in out

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


@pytest.mark.parametrize("order", [12, 13, 14])
def test_verify_e6_certifies_the_dual_route_at_the_requested_order(capsys, order):
    status, out, _ = _run(capsys, command="verify", model="e6", order=order)
    assert status == 0
    assert f"  pass  e6-gw-dual-route (order {order})\n" in out


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
     "e5cb823150e8002686a1d30792d2040e916282a3f48843b5ccbab98cde8c2584"),
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
     "388043c05f9acf6ef0c02ed0bbc01dc1eb6fbeaed2040de48131ce277c470848"),
    (dict(command="expand", expression="eta(2)^-3/2 * eta(4)^1/2", order=60, format="json"),
     "b4afa721e9ddd52730529fcc1de49713d7db29b25674cf3feedd364cbbeec4d0"),
    (dict(command="expand", expression="eta(2)^-3/2 * eta(4)^1/2", order=60, format="csv"),
     "7d2326e854383fedac6d61c7d0dbe4742c54645488d725a0bb069c2210427b6c"),
    # every WDVV base series is a monomial at these orders, so the engine's stride is 1
    (dict(command="verify", model="e6", order=2),
     "e53ea7411e494f7da2467b663cf88cdb8ea4886f8f8c27c6c7fa2a193f4d4935"),
    (dict(command="verify", model="e6", order=3, strict_typo_mode=True),
     "535b888f57609ee674b378943575c45da42d3651ff983b05cdaefa6944f4004f"),
    # the twisted pole series' q^-1 term meets the truncation
    (dict(command="verify", model="e6", order=3),
     "526194d09769985504330d123119a0e05c2b608651c887ed904a18ae6c984035"),
    (dict(command="verify", model="identities", order=2),
     "104c5833acba58dce7bd9d779e212c244da3e4d5958b50fd3feb1d2f3a2942ee"),
    (dict(command="verify", model="identities", order=3),
     "05bc583c72990dbe19dbe400c166e68c6aa9750c72108bebdc7768958586f7b0"),
    # an integral offset (-1) reached through a fractional exponent
    (dict(command="expand", expression="eta(48)^-1/2", order=2),
     "db97ce61338bec80b7d8f833217a778b18d247122e89b09572469c2cf4dd1a7b"),
    # the fractional-offset JSON: scalar, offset and unit fields
    (dict(command="expand", expression="eta(1)^1/2", order=5, format="json"),
     "98fa14f19c8a83b4c475b44c4d3cc2f614a1e1c104842b24482f57e7aa683638"),
    # theta_2's q^(1/4) enters the Halphen checks through theta_logderiv
    (dict(command="verify", model="halphen", order=60, format="json"),
     "628043b7b7c52f3eb0ad80f32845c2e9bbecf22b590728a06ba2478ce19c8573"),
    # fractional and negative exponents of eta units
    (dict(command="expand", expression="eta(1)^-5/24 * eta(3)^7/3", order=90),
     "ef69fb5c679136cf80b4a2bb4f572de8e4e9d167e9e465808f741dd9d3477070"),
    (dict(command="expand", expression="eta(1)^1/24", order=120, format="json"),
     "4eba02f7985f44cdfb7240edb4c15420eade7b45d629c91c31edc343a01cd92f"),
    # both square-root routes to f_0, log_unit through the series inverse, the d4 WDVV scan
    (dict(command="gw-table", kmax=40),
     "a7f8944f7f3b377bd4919198d1f96e8d8472efcf023c0eeebd6c75b9ad2c2c08"),
    (dict(command="genus-one", model="e6", order=90),
     "16119b10090f174782c25e1260ab0b479c521d11a9d6a2833a6257e2821619f5"),
    (dict(command="verify", model="d4", order=125, format="json"),
     "329de73e8a1a87820ca703d4e370674325256a8fd8d0317e629a18eb5869e082"),
    # every command x format pair no digest above covers, recorded before the
    # formats shared one output function
    (dict(command="solve", model="d4", order=60),
     "56ae8a99de56e09358e7b4f79a24464dad6c6a743a3d3494146080374f017e29"),
    (dict(command="solve", model="d4", order=60, format="csv"),
     "7d0f12be4f42d9acadcb6ae4416864b6b4eafdb3158eb79372299f6f46cc8abf"),
    (dict(command="solve", model="e6", order=60, format="json"),
     "1759285b7438c6a0fdf8b189e31afa23553de4d9686e638edab0f9bd3dbea99f"),
    (dict(command="verify", model="halphen", order=60, format="csv"),
     "9afe2415ada98e30a32ce9b6ad4370f3164829b6a5060e530fc78f2e93029d40"),
    (dict(command="verify", model="e6", order=60, strict_typo_mode=True, format="csv"),
     "a99c1074f9c3ac8a0c9d6cd9e39be6cf901deb1913100c234ad06a4d2b1c7801"),
    (dict(command="gw-table", kmax=30, format="json"),
     "6475781e8368f718adabd867500a474bbfee16464e17bfb0b9d51249b49bf995"),
    (dict(command="gw-table", kmax=30, format="csv"),
     "dacb501ce3e96ab10c1745ddd8371bcc7455d77187849e6b136b0c54f17c9e59"),
    (dict(command="genus-one", model="d4", order=60),
     "2026ad0214f03cb3e37ab8c88547f5582f4233a882b7ff67cb27a445679f6dc5"),
    (dict(command="genus-one", model="d4", order=60, format="csv"),
     "8a7f496f3f6591738cd404983c7657b3074396df9e3b96b1d3aad08ede4bb46b"),
    (dict(command="genus-one", model="e6", order=60, format="csv"),
     "c454d1ad933eba3a8dcb72cc0aad92bad7e761ee3ba399c0846ece57d10f80db"),
    # a zero exponent drops its factor: eta(2) alone, and the empty quotient, printed 1
    (dict(command="expand", expression="eta(1)^0 * eta(2)", order=5),
     "4bea37796c5d56966e9c4242c8d473752fffc47f8c5785d1ae22404efa61025c"),
    (dict(command="expand", expression="eta(1)^0 * eta(2)", order=5, format="json"),
     "2f5c52266952aa02e69dc38ca91b09e66102b538d9a466b9f681d004560cac7b"),
    (dict(command="expand", expression="eta(1)^0", order=5),
     "4765e10cf8fd6da44049ece403642fa43de65780b9fdd2a0111c39de6c540928"),
    (dict(command="expand", expression="eta(1)^0", order=5, format="json"),
     "e0216dd77b589837a84893051017649876f8e3b5bb5be1859de3b8c55cf930a5"),
    (dict(command="expand", expression="eta(1)^0", order=5, format="csv"),
     "f557e5acac9f2444dc2d0083874d429f3162f4c4ea79431717009dc5c1dc211e"),
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
        "de3531ae892cf17ff669e2fa9727e373d6b3d5a7cf9a5fbef4845cda2e926833")


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
    assert config.model == "e6"
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
