import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from h4hecke import cli, geometry
from h4hecke.asymptotics import power_law_function
from h4hecke.cli import main
from h4hecke.files import (
    FileFormatError,
    parse_coefficient_field,
    parse_lambda_table,
    parse_sampled_function,
    parse_spectral_form,
    write_coefficient_field,
    write_sampled_function,
)
from h4hecke.hecke import CoefficientField, EigenvalueTriple, QComplex, QuadExt, apply_hecke
from h4hecke.numerics import SpectralForm, evaluate_form
from h4hecke.quaternions import LemmaSweepError
from reference import (
    parse_coefficient_field_quad, write_coefficient_field_json, write_lambda_table, write_spectral_form,
)


@st.composite
def _fractional_fields(draw):
    """A field over plain Q or over Q(sqrt p) whose entries have assorted denominators."""
    p = draw(st.sampled_from([None, 3, 5, 7]))
    rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))

    def scalar():
        return QuadExt(p, draw(rationals), Fraction(0) if p is None else draw(rationals))

    betas = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3).filter(any), max_size=8, unique=True))
    return CoefficientField(p, {beta: QComplex(scalar(), scalar()) for beta in betas})


class TestCoefficientFiles:
    def test_round_trip_plain(self, tmp_path):
        rng = random.Random(0)
        field = CoefficientField.random(rng, support=6, coord_bound=3)
        path = tmp_path / "field.json"
        write_coefficient_field(field, path)
        assert parse_coefficient_field(path) == field
        # canonical files round-trip byte-identically
        second = tmp_path / "again.json"
        write_coefficient_field(parse_coefficient_field(path), second)
        assert path.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(_fractional_fields())
    def test_round_trip_property(self, field):
        # parse(write(A)) == A, and write(parse(f)) is byte-identical on the canonical file f
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "field.json", Path(tmp) / "again.json"
            write_coefficient_field(field, path)
            parsed = parse_coefficient_field(path)
            assert parsed == field and parsed.p == field.p
            assert {b: (repr(v.re), repr(v.im)) for b, v in parsed.entries.items()} == \
                {b: (repr(v.re), repr(v.im)) for b, v in field.entries.items()}
            write_coefficient_field(parsed, again)
            assert again.read_bytes() == path.read_bytes()

    def test_round_trip_sqrt_extension(self, tmp_path):
        rng = random.Random(1)
        field = CoefficientField.random(rng, p=5, support=5, sqrt_parts=True)
        path = tmp_path / "field.json"
        write_coefficient_field(field, path)
        parsed = parse_coefficient_field(path)
        assert parsed == field and parsed.p == 5

    def test_round_trip_prime_inferred_from_entries(self, tmp_path):
        # declared over plain Q, but a sqrt(3) part makes the field one over Q(sqrt 3),
        # so the file keeps the sqrt(3) part
        field = CoefficientField(None, {(1, 0, 0): QComplex(QuadExt(3, Fraction(1), Fraction(2)), QuadExt.of(0))})
        assert field.p == 3
        path, again = tmp_path / "field.json", tmp_path / "again.json"
        write_coefficient_field(field, path)
        assert json.loads(path.read_text())["entries"][0]["re"] == ["1", "2"]
        parsed = parse_coefficient_field(path)
        assert parsed == field and parsed.p == 3
        write_coefficient_field(parsed, again)
        assert again.read_bytes() == path.read_bytes()

    def test_empty_entries_is_zero_field(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"entries": []}')
        assert parse_coefficient_field(path).is_zero

    def test_delta_file(self, tmp_path):
        path = tmp_path / "delta.json"
        path.write_text('{"entries": [{"beta": [1, 0, 0], "re": ["1/1"], "im": ["0/1"]}]}')
        field = parse_coefficient_field(path)
        assert field.at((1, 0, 0)) == QComplex.of(1)

    def test_duplicate_beta_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"entries": [
            {"beta": [1, 0, 0], "re": ["1"], "im": ["0"]},
            {"beta": [1, 0, 0], "re": ["2"], "im": ["0"]},
        ]}))
        with pytest.raises(FileFormatError, match="duplicate"):
            parse_coefficient_field(path)

    def test_origin_rejected(self, tmp_path):
        path = tmp_path / "origin.json"
        path.write_text('{"entries": [{"beta": [0, 0, 0], "re": ["1"], "im": ["0"]}]}')
        with pytest.raises(FileFormatError, match="beta = 0"):
            parse_coefficient_field(path)

    def test_malformed_rational_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [{"beta": [1, 0, 0], "re": ["1/x"], "im": ["0"]}]}')
        with pytest.raises(FileFormatError, match="malformed rational"):
            parse_coefficient_field(path)

    @pytest.mark.parametrize("coordinate", ["1.5", "true", '"1"'])
    def test_non_integer_beta_rejected(self, tmp_path, coordinate):
        # int() once truncated 1.5 to 1, so S_1(9) read 1.0 on a field with no lattice point
        path = tmp_path / "frac.json"
        path.write_text('{"entries": [{"beta": [%s, 0, 0], "re": ["1"]}]}' % coordinate)
        with pytest.raises(FileFormatError, match="beta coordinates must be integers"):
            parse_coefficient_field(path)

    def test_integral_float_beta_kept(self, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('{"entries": [{"beta": [2.0, 0, -1.0], "re": ["1"]}]}')
        assert set(parse_coefficient_field(path).entries) == {(2, 0, -1)}

    @pytest.mark.parametrize("p", ["3.5", '"3"', "true"])
    def test_non_integer_p_rejected(self, tmp_path, p):
        # int() once truncated 3.5 to 3, so hecke apply --p 3 ran on the file and wrote "p": 3
        path = tmp_path / "frac_p.json"
        path.write_text('{"p": %s, "entries": [{"beta": [1, 0, 0], "re": ["1", "1"]}]}' % p)
        with pytest.raises(FileFormatError, match="p must be an integer"):
            parse_coefficient_field(path)

    def test_integral_float_p_kept(self, tmp_path):
        path = tmp_path / "float_p.json"
        path.write_text('{"p": 3.0, "entries": [{"beta": [1, 0, 0], "re": ["1", "1"]}]}')
        assert parse_coefficient_field(path).p == 3

    @pytest.mark.parametrize("text", ["1/0", "1/-2", "a", "", "1//2", "3/ 4", "3/+4", "0x10"])
    def test_malformed_rational_message(self, tmp_path, text):
        # the fast path for "n" and "n/d" hands every other text to Fraction, which refuses these
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": 5, "entries": [{"beta": [1, 0, 0], "re": ["1", text]}]}))
        message = f"malformed rational {text!r}"
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            parse_coefficient_field(path)
        with pytest.raises(FileFormatError, match=f"^{re.escape(message)}$"):
            parse_coefficient_field_quad(path)

    def test_past_the_int_digit_limit_is_malformed(self, tmp_path):
        # int() refuses more digits than sys.get_int_max_str_digits(), and so does Fraction()
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no digit limit")
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"entries": [{"beta": [1, 0, 0], "re": ["1/" + "7" * (limit + 1)]}]}))
        with pytest.raises(FileFormatError, match="^malformed rational"):
            parse_coefficient_field(path)

    def test_unreduced_parts_give_the_constructors_arrays(self, tmp_path):
        # 2^63/2 over the lcm 2 has the numerator 2^63, past int64; in lowest terms it is 2^62, which fits
        path = tmp_path / "unreduced.json"
        path.write_text(json.dumps({"p": 3, "entries": [{"beta": [1, 0, 0], "re": [f"{2 ** 63}/2", "0/5"]},
                                                        {"beta": [0, 2, 0], "im": ["-0", f"{2 ** 62}/2"]}]}))
        got, expected = parse_coefficient_field(path), parse_coefficient_field_quad(path)
        assert got == expected and got.den == expected.den == 1
        assert got.nums.tolist() == expected.nums.tolist() and got.nums.dtype == expected.nums.dtype == np.int64

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_the_quad_ext_route(self, data):
        # the parse of any file, canonical or in a form only Fraction reads, is the field (or the error)
        # of the old route through Fraction, QuadExt and QComplex: ==, den, nums and its dtype, key order
        p = data.draw(st.sampled_from([None, 3, 5, 7, 3.0, 9]))
        numerators = st.integers(-9, 9) | st.builds(int.__mul__, st.sampled_from([1000, 2 ** 62, 2 ** 70]),
                                                    st.sampled_from([1, -1]))
        rationals = st.builds(Fraction, numerators, st.sampled_from([1, 2, 3, 4, 6, 12, 2 ** 63 + 1]))

        def text(x: Fraction):
            n, d = x.numerator, x.denominator
            k = data.draw(st.sampled_from([1, 1, 2, 7]))
            forms = [str(x), f"{n * k}/{d * k}", f"0{n}/00{d}" if n >= 0 else f"-0{-n}/0{d}",
                     f" {x} ", f"+{x}" if n >= 0 else str(x), n if d == 1 else str(x)]
            if d in (1, 2, 4):
                forms += [float(x) if abs(n) < 2 ** 50 else str(x), f"{float(x)}" if abs(n) < 2 ** 50 else str(x)]
            return data.draw(st.sampled_from(forms + [" 3/4 ", "+2", "1.5", "1e3", "-0", "07/014", "2/4", "0/5", 0]))

        def scalar():
            parts = [text(data.draw(rationals))]
            if data.draw(st.booleans()):
                parts.append(text(data.draw(rationals) if data.draw(st.booleans()) else Fraction(0)))
            return parts[0] if len(parts) == 1 and data.draw(st.booleans()) else parts

        betas = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3).filter(any), max_size=8, unique=True))
        doc = {"entries": [{"beta": list(b), "re": scalar(), "im": scalar()} for b in betas]}
        if p is not None:
            doc["p"] = p

        def outcome(parse, path):
            try:
                return parse(path)
            except ValueError as exc:  # FileFormatError is one
                return type(exc), str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.json"
            path.write_text(json.dumps(doc))
            got, expected = outcome(parse_coefficient_field, path), outcome(parse_coefficient_field_quad, path)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got == expected and got.p == expected.p and got.den == expected.den and repr(got) == repr(expected)
        assert got.keys.tolist() == expected.keys.tolist() and got.keys.dtype == expected.keys.dtype
        assert got.nums.tolist() == expected.nums.tolist() and got.nums.dtype == expected.nums.dtype


def _layout_cases():
    """Named fields for the layout test: empty, plain Q, huge numerators, negative coordinates, operator outputs."""
    q = lambda a, b=0, p=None: QuadExt(p, Fraction(a), Fraction(b))  # noqa: E731
    huge = 10 ** 30
    cases = {
        "empty": CoefficientField(None, {}),
        "empty_p7": CoefficientField(7, {}),
        "plain_q": CoefficientField(None, {(1, 0, 0): QComplex(q(Fraction(-1, 2)), q(3)),
                                           (0, 2, -1): QComplex(q(0), q(5))}),
        "huge_numerators": CoefficientField(5, {
            (1, 1, 0): QComplex(q(huge, -huge - 7, 5), q(Fraction(huge ** 2 + 1, 3), 0, 5)),
            (2, 0, 0): QComplex(q(-(10 ** 40)), q(0, Fraction(1, huge), 5)),
        }),
        "negative_coordinates": CoefficientField(3, {
            (-1, -2, -3): QComplex(q(1, 1, 3), q(-1, 0, 3)), (-4, 0, 1): QComplex(q(0, -2, 3), q(7, 0, 3)),
            (0, -1, 0): QComplex(q(Fraction(-5, 6), Fraction(1, 9), 3), q(0, 0, 3)),
        }),
    }
    rng = random.Random(19)
    for p in (3, 5, 7):
        A = CoefficientField.random(rng, p=p, support=8, coord_bound=3, entry_bound=10, sqrt_parts=True)
        for ell in (1, 2, 3):
            cases[f"H{ell}_p{p}"] = apply_hecke(ell, p, A)
    return cases


_LAYOUT_CASES = _layout_cases()


class TestCoefficientFileLayout:
    """The writer's bytes equal those of json.dump(indent=1) plus a newline, the layout files have always had."""

    @staticmethod
    def _assert_same_bytes(field):
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = Path(tmp) / "got.json", Path(tmp) / "expected.json"
            write_coefficient_field(field, got)
            write_coefficient_field_json(field, expected)
            assert got.read_bytes() == expected.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(_fractional_fields())
    def test_matches_json_dump_on_drawn_fields(self, field):
        self._assert_same_bytes(field)

    @pytest.mark.parametrize("name", sorted(_LAYOUT_CASES))
    def test_matches_json_dump(self, name):
        field = _LAYOUT_CASES[name]
        assert name.startswith("empty") or field.entries
        self._assert_same_bytes(field)


class TestWriterTarget:
    """The writers write over an existing file in place and cut it to length: the bytes are those of a fresh
    write whatever the old file held, and the target is opened as open(path, "w") opens it."""

    FIELD = _LAYOUT_CASES["H3_p7"]

    @staticmethod
    def _fresh(write, obj, tmp_path):
        path = tmp_path / "fresh"
        write(obj, path)
        return path.read_bytes()

    @pytest.mark.parametrize("writer", ["field", "function"])
    @pytest.mark.parametrize("old", ["longer", "shorter", "same_length", "empty"])
    def test_overwrite_equals_a_fresh_write(self, tmp_path, writer, old):
        write, obj = {"field": (write_coefficient_field, self.FIELD),
                      "function": (write_sampled_function, power_law_function(0.125, y_max=50.0))}[writer]
        fresh = self._fresh(write, obj, tmp_path)
        old_bytes = {"longer": fresh + b"x" * 5000, "shorter": fresh[: len(fresh) // 3], "empty": b"",
                     "same_length": bytes(reversed(fresh))}[old]
        target = tmp_path / "target"
        target.write_bytes(old_bytes)
        write(obj, target)
        assert target.read_bytes() == fresh

    def test_dev_null(self, tmp_path, capsys):
        if not os.path.exists(os.devnull):
            pytest.skip("no null device")
        write_coefficient_field(self.FIELD, os.devnull)
        write_sampled_function(power_law_function(0.125, y_max=50.0), os.devnull)
        src = tmp_path / "in.json"
        write_coefficient_field(CoefficientField.random(random.Random(4), p=3, support=4, sqrt_parts=True), src)
        assert main(["hecke", "apply", "--op", "1", "--p", "3", "--in", str(src), "--out", os.devnull]) == 0

    def test_symlink_is_written_through(self, tmp_path):
        fresh = self._fresh(write_coefficient_field, self.FIELD, tmp_path)
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_bytes(b"y" * (2 * len(fresh)))
        link.symlink_to(real)
        write_coefficient_field(self.FIELD, link)
        assert link.is_symlink() and real.read_bytes() == fresh

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_coefficient_field(self.FIELD, tmp_path / "new.json")
            with open(tmp_path / "by_open.json", "w"):
                pass
        finally:
            os.umask(previous)
        mode = (tmp_path / "new.json").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask == (tmp_path / "by_open.json").stat().st_mode & 0o777


class TestOtherFiles:
    def test_lambda_table_round_trip(self, tmp_path):
        table = {p: EigenvalueTriple(p, 0.1 * p, -0.2, 1.5) for p in (3, 5, 7)}
        path = tmp_path / "lam.csv"
        write_lambda_table(table, path)
        assert parse_lambda_table(path) == table

    def test_lambda_table_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,l1,l2,l3\n3,1,1,1\n")
        with pytest.raises(FileFormatError, match="header"):
            parse_lambda_table(path)

    @pytest.mark.parametrize("row,message", [("5,inf,0.1,1.5", "non-finite"), ("5,0.2,nan,1.5", "non-finite"),
                                             ("5,0.2,0.1,x", "lambda3 must be a number")])
    def test_lambda_table_values_checked(self, tmp_path, row, message):
        # an inf row once reached sums partition and ended in an OverflowError traceback
        path = tmp_path / "lam.csv"
        path.write_text(f"p,lambda1,lambda2,lambda3\n3,1.0,0.5,0.1\n{row}\n")
        with pytest.raises(FileFormatError, match=message):
            parse_lambda_table(path)

    def test_sampled_function_round_trip(self, tmp_path):
        f = power_law_function(0.125, y_max=50.0)
        path = tmp_path / "f.csv"
        write_sampled_function(f, path)
        g = parse_sampled_function(path)
        assert np.allclose(f.grid, g.grid)
        assert np.allclose(f.values, g.values)

    def test_spectral_form_round_trip(self, tmp_path):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1 + 2j, (0, 1, 1): -0.5j})
        path = tmp_path / "form.json"
        write_spectral_form(form, path)
        assert parse_spectral_form(path) == form

    def test_spectral_form_short_beta_rejected(self, tmp_path):
        path = tmp_path / "form.json"
        path.write_text('{"r": 1.0, "entries": [{"beta": [1, 0], "re": 1.0, "im": 0.0}]}')
        with pytest.raises(FileFormatError, match="3 coordinates"):
            parse_spectral_form(path)

    @pytest.mark.parametrize("coordinate", ["1.5", "true", '"1"'])
    def test_spectral_form_non_integer_beta_rejected(self, tmp_path, coordinate):
        # int() once truncated 1.5 to 1, so the mode evaluated as if beta were (1, 0, 0)
        path = tmp_path / "form.json"
        path.write_text('{"r": 1.0, "entries": [{"beta": [%s, 0, 0], "re": 1.0, "im": 0.0}]}' % coordinate)
        with pytest.raises(FileFormatError, match="beta coordinates must be integers"):
            parse_spectral_form(path)


class TestCliCommands:
    def test_quat_enum_count(self, capsys):
        assert main(["quat", "enum", "--norm", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 32

    def test_quat_reps(self, capsys):
        assert main(["quat", "reps", "--p", "5"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 6

    def test_quat_verify_lemmas(self, capsys):
        assert main(["quat", "verify-lemmas", "--p", "3", "--bound", "3"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_geom_reduce(self, capsys):
        assert main(["geom", "reduce", "--point", "0,0,0,0.5"]) == 0
        out = capsys.readouterr().out
        assert "inversion" in out

    def test_geom_reduce_json_word_rebuilds_the_matrix(self, capsys):
        # a translation once printed as ["translate", "(-3, 1, 0)"], Python tuple syntax inside a string
        z = geometry.as_point((2.7, -1.3, 0.4, 0.02))
        word, _ = geometry.reduce_to_fundamental_domain(z)
        assert main(["--json", "geom", "reduce", "--point", "2.7,-1.3,0.4,0.02"]) == 0
        printed = json.loads(capsys.readouterr().out)["word"]
        rebuilt = tuple((t[0], tuple(t[1])) if t[0] == "translate" else tuple(t) for t in printed)
        assert ["inversion"] in printed and rebuilt == word
        assert all(type(c) is int for t in printed if t[0] == "translate" for c in t[1]), printed
        assert geometry.word_to_matrix(rebuilt) == geometry.word_to_matrix(word)

    def test_geom_act(self, capsys):
        argv = ["geom", "act", "--matrix"] + ["0", "0", "0", "0", "1", "0", "0", "0",
                                              "-1", "0", "0", "0", "0", "0", "0", "0"]
        assert main(argv + ["--point", "0,0,0,0.5"]) == 0
        assert "2" in capsys.readouterr().out

    @pytest.mark.parametrize("matrix,point,printed", [
        ("1 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0", "0,0,0,1e308", "0,0,0,1e+308"),
        ("1 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0", "0.1,0,0,2e154", "0.1,0,0,2e+154"),
        ("0 0 0 0 1 0 0 0 -1 0 0 0 0 0 0 0", "0,0,0,1e-200", "0,0,0,1e+200"),
        pytest.param(f"{10 ** 200} 0 0 0 0 0 0 0 0 0 0 0 {10 ** 200} 0 0 0", "0,0,0,0.5", "0,0,0,0.5",
                     id="diag(10^200, 10^200)"),  # |a|^2 and |d|^2 leave it
    ])
    def test_geom_act_past_the_square_range(self, matrix, point, printed, capsys):
        # y^2, |cz + d|^2 or a product of entries leaves the double range, the image does not: these once exited 2
        assert main(["geom", "act", "--matrix", *matrix.split(), "--point", point]) == 0
        assert capsys.readouterr().out == printed + "\n"

    def test_geom_act_non_similitude_exits_2(self, capsys):
        # c = k: pseudo-determinant 1, but d c^* has a k-component
        argv = ["geom", "act", "--matrix"] + ["1", "0", "0", "0", "0", "0", "0", "0",
                                              "0", "0", "0", "1", "1", "0", "0", "0"]
        assert main(argv + ["--point", "0.1,0.2,0.3,1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not a similitude" in err[0]

    def test_geom_act_overflow_is_named(self, capsys):
        # this once blamed the point: "point must have y > 0, got y = nan"; the image y = 10^310 is past
        # the double range, scaled or not
        argv = ["geom", "act", "--matrix", str(10 ** 300), *["0"] * 11, "1", "0", "0", "0", "--point", "0,0,0,1e10"]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("usage error: the action overflows the double range: "
                                           "g . z computes to (0.0, 0.0, 0.0, inf)\n")

    def test_geom_act_non_invertible_denominator_exits_2(self, capsys):
        # this once ended in a traceback: ArithmeticError from act, which main did not catch
        argv = ["geom", "act", "--matrix"] + ["0", "0", "0", "0", "1", "0", "0", "0",
                                              "-1", "0", "0", "0", "0", "0", "0", "0"]
        assert main(argv + ["--point", "0,0,0,1e-320"]) == 2
        assert capsys.readouterr().err == ("usage error: cannot act on (0.0, 0.0, 0.0, 1e-320): "
                                           "c z + d is numerically non-invertible\n")

    def test_geom_verify_cusp_past_the_sample_ceiling_exits_2(self, capsys, time_limit):
        # this once sampled for hours: the loop is linear in the sample count
        with time_limit(1):
            assert main(["geom", "verify-cusp", "--T", "2", "--samples", "1000000000000", "--seed", "0"]) == 2
        assert capsys.readouterr().err == ("usage error: sample count 1000000000000 is past "
                                           f"MAX_CUSP_SAMPLES = {geometry.MAX_CUSP_SAMPLES}, the largest supported\n")

    def test_geom_reduce_tiny_height(self, capsys):
        assert main(["geom", "reduce", "--point", "0,0,0,1e-200"]) == 0
        out = capsys.readouterr().out
        assert [float(t) for t in out.split("point: ")[1].split(",")] == [0, 0, 0, 1e200]
        assert main(["geom", "reduce", "--point", "0,0,0,1e-320"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflows" in err[0]

    @pytest.mark.parametrize("point", ["0,0,0,inf", "inf,0,0,1", "0,nan,0,1", "0,0,0,-inf"])
    def test_geom_reduce_non_finite_point_exits_2(self, point, capsys):
        # argparse prints its usage line and one error line naming the point
        with pytest.raises(SystemExit) as exc:
            main(["geom", "reduce", "--point", point])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"point coordinates must be finite, got {point}" in errors[0]

    @pytest.mark.parametrize("bound", ["0", "-2"])
    def test_quat_verify_lemmas_empty_box_exits_2(self, bound, capsys):
        assert main(["quat", "verify-lemmas", "--p", "3", "--bound", bound]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "coordinate bound must be at least 1" in err[0]

    def test_geom_verify_cusp(self, capsys):
        assert main(["geom", "verify-cusp", "--T", "2", "--samples", "50", "--seed", "1"]) == 0

    def test_hecke_verify_relation(self, capsys):
        assert main(["hecke", "verify-relation", "--p", "3", "--trials", "3", "--seed", "7"]) == 0
        assert "residual zero" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--json", "quat", "verify-lemmas", "--p", "7", "--bound", "3"],
        ["quat", "verify-lemmas", "--p", "7", "--bound", "3", "--json"],
        ["--json", "hecke", "verify-relation", "--p", "7", "--trials", "2", "--seed", "1"],
        ["hecke", "verify-relation", "--p", "7", "--trials", "2", "--seed", "1", "--json"],
    ])
    def test_json_flag_before_or_after_command(self, argv, capsys):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1 and report["p"] == 7

    def test_hecke_commute(self, capsys):
        assert main(["hecke", "commute", "--p", "3", "--q", "5", "--trials", "2"]) == 0

    def test_hecke_apply_round_trip(self, tmp_path, capsys):
        rng = random.Random(4)
        field = CoefficientField.random(rng, p=3, support=4, sqrt_parts=True)
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        write_coefficient_field(field, src)
        assert main(["hecke", "apply", "--op", "2", "--p", "3",
                     "--in", str(src), "--out", str(dst)]) == 0
        assert parse_coefficient_field(dst) == apply_hecke(2, 3, field)

    def test_sums_compute(self, tmp_path, capsys):
        field = CoefficientField.ones_ball(9)
        src = tmp_path / "ones.json"
        write_coefficient_field(field, src)
        assert main(["sums", "compute", "--kind", "S", "--in", str(src), "--d", "1", "--z", "9"]) == 0
        assert "122" in capsys.readouterr().out

    def test_sums_partition(self, tmp_path, capsys):
        table = {p: EigenvalueTriple.from_lam12(p, 0.3, 0.2) for p in (17, 19, 23, 29, 31)}
        path = tmp_path / "lam.csv"
        write_lambda_table(table, path)
        assert main(["sums", "partition", "--y", str(2.0 ** 40), "--lambda-table", str(path)]) == 0

    def test_sums_report(self, tmp_path, capsys):
        field = CoefficientField.ones_ball(81)
        src = tmp_path / "ones.json"
        write_coefficient_field(field, src)
        table = {3: EigenvalueTriple(3, 1.0, 0.5, 0.0)}
        lam = tmp_path / "lam.csv"
        write_lambda_table(table, lam)
        assert main(["sums", "report", "--which", "L6.3i", "--in", str(src), "--z", "81",
                     "--p", "3", "--d", "1", "--lambda-table", str(lam)]) == 0
        assert "ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--K", "inf"), ("--K", "nan"), ("--window-P", "inf"), ("--window-P", "-inf"),
        ("--const-A", "nan"), ("--const-B", "inf"),
    ])
    def test_sums_report_non_finite_float_exits_2(self, flag, value, tmp_path, capsys):
        src = tmp_path / "ones.json"
        write_coefficient_field(CoefficientField.ones_ball(9), src)
        argv = ["sums", "report", "--which", "L6.4a", "--in", str(src), "--z", "9",
                "--K", "1", "--window-P", "14"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])  # the = form lets a value start with "-"
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: must be finite, got {value}" in errors[0]

    def test_sums_report_non_number_exits_2(self, tmp_path, capsys):
        src = tmp_path / "ones.json"
        write_coefficient_field(CoefficientField.ones_ball(9), src)
        with pytest.raises(SystemExit) as exc:
            main(["sums", "report", "--which", "L6.4a", "--in", str(src), "--z", "9", "--K", "one"])
        assert exc.value.code == 2
        assert "argument --K: not a number: 'one'" in capsys.readouterr().err

    def test_consecutive_calls_share_no_arguments(self, capsys):
        # the parser is built once per process; each call must still parse afresh
        argv = ["asym", "compute-R", "--A", "10", "--M", "0", "--eps", "0.5"]
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"schema": 1, "R": 16}
        with pytest.raises(SystemExit) as exc:
            main(["asym", "compute-R", "--A", "10"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "R = 16"
        assert main(["--json"] + argv) == 0
        assert json.loads(capsys.readouterr().out) == {"schema": 1, "R": 16}
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "R = 16"

    def test_asym_compute_R(self, capsys):
        assert main(["asym", "compute-R", "--A", "10", "--M", "3", "--eps", "0.01"]) == 0
        assert "1094" in capsys.readouterr().out

    def test_asym_verify(self, tmp_path, capsys):
        f = power_law_function(0.125, y_max=math.exp(20))
        fpath = tmp_path / "f.csv"
        write_sampled_function(f, fpath)
        ppath = tmp_path / "params.json"
        ppath.write_text(json.dumps({"delta": 0.125, "eps": 0.25, "A": 10.0, "a": [], "b": []}))
        assert main(["asym", "verify", "--f", str(fpath), "--params", str(ppath)]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("params,codes", [
        ({"delta": 0.125, "eps": 0.25, "A": 10, "b": [400]}, (0,)),
        ({"delta": 1e300, "eps": 0.25, "A": 10}, (0, 1)),
    ])
    def test_asym_verify_large_constants_give_a_verdict(self, params, codes, tmp_path, capsys):
        # both once ended in OverflowError: (34, 'Numerical result out of range')
        write_sampled_function(power_law_function(0.125, y_max=math.exp(20)), tmp_path / "f.csv")
        (tmp_path / "params.json").write_text(json.dumps(params))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["asym", "verify", "--f", str(tmp_path / "f.csv"), "--params", str(tmp_path / "params.json")])
        assert code in codes
        assert capsys.readouterr().err == ""

    def test_asym_verify_conclusion_past_the_double_range(self, tmp_path, capsys):
        # R = 1094: this once printed minimal C=nan after a RuntimeWarning from the divide
        write_sampled_function(power_law_function(0.125, y_max=math.exp(20), h=0.02), tmp_path / "f.csv")
        (tmp_path / "params.json").write_text(json.dumps({"delta": 1e300, "eps": 0.01, "A": 10, "a": [0.5] * 3}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["asym", "verify", "--f", str(tmp_path / "f.csv"), "--params", str(tmp_path / "params.json")])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert "R=1094; minimal C=inf" in out

    def test_maass_commands(self, tmp_path, capsys):
        form = SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0, (0, 1, 0): 0.5j})
        fpath = tmp_path / "form.json"
        write_spectral_form(form, fpath)
        assert main(["maass", "eval", "--form", str(fpath), "--point", "0.1,0.2,0.3,1.0"]) == 0
        capsys.readouterr()
        assert main(["--json", "maass", "eval", "--form", str(fpath), "--point", "0.1,0.2,0.3,1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        value = evaluate_form(parse_spectral_form(fpath), geometry.PointH4(0.1, 0.2, 0.3, 1.0))
        assert sorted(report) == ["schema", "value"] and report["schema"] == 1
        assert {k: repr(v) for k, v in report["value"].items()} == {"im": repr(value.imag), "re": repr(value.real)}
        assert main(["maass", "parseval", "--form", str(fpath), "--y", "1.0"]) == 0
        assert main(["maass", "cusp", "--form", str(fpath), "--T", "2"]) == 0
        assert main(["maass", "laplace-check", "--beta", "1,0,0", "--r", "1"]) == 0
        # r = 17 and 20 were once refused as a vanishing mode, since |u| ~ e^(-pi r/2) fell under 1e-12
        assert main(["maass", "laplace-check", "--beta", "1,0,0", "--r", "20"]) == 0

    @pytest.mark.parametrize("h, resolved", [
        (None, True),  # the default h = 1e-3: the O(h^2) error dominates
        ("1e-8", False),  # rounding noise, about 1e-16 |u| / h^2, grows as h halves
    ])
    def test_laplace_check_order_ratio(self, h, resolved, capsys):
        argv = ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", *(["--h", h] if h else [])]
        assert main(["--json", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report) == ["h", "h_r_over_y", "half_h_refusal", "order_ratio", "residual", "residual_half_h",
                                  "schema"]
        assert report["schema"] == 1 and report["half_h_refusal"] is None
        ratio = report["order_ratio"]
        assert ratio == report["residual"] / report["residual_half_h"]
        assert 3.5 < ratio < 4.5 if resolved else not 3 < ratio < 5
        assert main(argv) == 0
        assert f"ratio {ratio:.5g}" in capsys.readouterr().out

    @pytest.mark.parametrize("r, shown, unresolved", [
        ("1", "0.0033", False),  # h r / y = 1e-3 / 0.3 at the default point
        ("100", "0.33", True),  # the residual reads about 1e2, still O(h^2): order ratio near 4
    ])
    def test_laplace_check_reports_steps_per_oscillation(self, r, shown, unresolved, capsys):
        argv = ["maass", "laplace-check", "--beta", "1,0,0", "--r", r]
        assert main(["--json", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1 and report["h_r_over_y"] == 1e-3 * float(r) / 0.3
        assert 3.5 < report["order_ratio"] < 4.5
        assert main(argv) == 0
        line = capsys.readouterr().out
        assert f"; h r / y = {shown}" in line and ("unresolved" in line) == unresolved

    def test_laplace_check_unresolved_from_r_30_at_the_default_point(self, capsys):
        for r, unresolved in (("29", False), ("30", True), ("-30", True)):
            assert main(["maass", "laplace-check", "--beta", "1,0,0", "--r", r]) == 0
            assert ("unresolved" in capsys.readouterr().out) == unresolved, r

    def test_laplace_check_half_step_refused(self, capsys):
        # h = 4e-17 resolves every coordinate of the default point, h/2 does not resolve 0.3 + h/2
        argv = ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", "--h", "4e-17"]
        assert main(["--json", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual_half_h"] is None and report["order_ratio"] is None
        assert report["half_h_refusal"].startswith("step h = 2e-17 is below the resolution of the point")
        assert math.isfinite(report["residual"])
        assert main(argv) == 0
        assert "at h/2 refused: step h = 2e-17" in capsys.readouterr().out

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_maass_eval_at_subnormal_height(self, r, tmp_path, capsys, time_limit):
        # K_ir at x = 2 pi 1e-310 once never returned at r = 0 and raised a math domain error at r = 1
        fpath = tmp_path / "form.json"
        write_spectral_form(SpectralForm.from_dict(r, {(1, 0, 0): 1.0}), fpath)
        assert _exit_code(["maass", "eval", "--form", str(fpath), "--point", "0,0,0,1e-310"], time_limit, 10) == 0
        assert capsys.readouterr().out.strip() == "phi(z) = 0 + 0i"

    def test_asym_compute_R_tiny_eps(self, capsys):
        assert main(["asym", "compute-R", "--A", "20", "--M", "3", "--eps", "1e-9"]) == 0
        assert capsys.readouterr().out.strip() == "R = 12347571184"
        assert main(["asym", "compute-R", "--A", "20", "--M", "3", "--eps", "1e-17"]) == 2
        assert "rounds to 1" in capsys.readouterr().err

    def test_maass_bad_inputs_exit_2(self, tmp_path, capsys):
        fpath = tmp_path / "form.json"
        fpath.write_text('{"r": 1.0, "entries": [{"beta": [1, 0], "re": 1.0, "im": 0.0}]}')
        assert main(["maass", "eval", "--form", str(fpath), "--point", "0.1,0.2,0.3,1.0"]) == 2
        assert main(["maass", "laplace-check", "--beta", "0,0,0", "--r", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and "3 coordinates" in err[0] and "beta must be nonzero" in err[1]

    def test_json_mode(self, capsys):
        assert main(["--json", "asym", "compute-R", "--A", "10", "--M", "0", "--eps", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"schema": 1, "R": 16}

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["quat", "enum", "--wrong", "3"])
        assert exc.value.code == 2

    def test_valid_neighbours_of_the_bad_files_run(self, bad_files, capsys):
        # the good files next to the malformed ones pass, so each bad case fails on its own defect
        assert main(["asym", "verify", "--f", bad_files["csv_ok"], "--params", bad_files["params"]]) == 0
        assert main(["sums", "compute", "--kind", "R", "--p", "3", "--in", bad_files["coeff"], "--z", "9"]) == 0
        assert main(["sums", "partition", "--y", str(2.0 ** 24), "--lambda-table", bad_files["lam_3_primes"]]) == 0

    def test_compute_R_without_p_is_a_usage_error(self, bad_files, capsys):
        assert main(["sums", "compute", "--kind", "R", "--in", bad_files["coeff"], "--z", "9"]) == 2
        assert capsys.readouterr().err.splitlines() == ["usage error: sums compute --kind R requires --p"]

    @pytest.mark.parametrize("command", ["quat", "geom", "sums"])
    def test_verification_failure_exits_1_from_main(self, command, bad_files, monkeypatch, capsys):
        # quat verify-lemmas, geom verify-cusp and sums report --assert-with-constant share main's FAIL path
        if command == "quat":
            def sweep(*args):
                raise LemmaSweepError("upper v_p bound violated", {"beta": (3, 0, 0)})
            monkeypatch.setattr("h4hecke.cli.verify_conjugation_lemmas", sweep)
            argv = ["quat", "verify-lemmas", "--p", "3", "--bound", "2"]
        elif command == "geom":
            def tiling(*args, **kw):
                raise AssertionError("sample matched twice")
            monkeypatch.setattr("h4hecke.geometry.verify_cusp_decomposition", tiling)
            argv = ["geom", "verify-cusp", "--samples", "3"]
        else:
            # K = 0 makes the right side 0 while the left side is positive
            argv = ["sums", "report", "--which", "L6.4a", "--in", bad_files["coeff"], "--z", "9",
                    "--K", "0", "--window-P", "14", "--assert-with-constant"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("FAIL: "), err

    def test_nonzero_relation_residual_exits_1_with_the_witness(self, monkeypatch, capsys):
        witness = CoefficientField.delta((1, 0, 0), Fraction(1, 3), p=3)
        monkeypatch.setattr("h4hecke.hecke.verify_hecke_relation", lambda p, field: witness)
        assert main(["hecke", "verify-relation", "--p", "3", "--trials", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["FAIL trial 0: nonzero residual with 1 entries; "
                                    "witness ((1, 0, 0), QComplex(re=QuadExt(1/3), im=QuadExt(0)))"]

    def test_commutator_past_the_bound_exits_1(self, monkeypatch, capsys):
        # the bound of acceptance 5, fixed: hecke commute takes no tolerance
        assert cli.COMMUTE_BOUND == 1e-9
        monkeypatch.setattr("h4hecke.hecke.verify_commutativity", lambda *args: 2e-9)
        assert main(["--json", "hecke", "commute", "--p", "3", "--q", "5", "--trials", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["FAIL: commutator residual 2e-09 >= 1e-09"]

    def test_malformed_file_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"entries": [{"beta": [1, 0, 0], "re": ["1/x"], "im": ["0"]}]}')
        assert main(["sums", "compute", "--kind", "S", "--in", str(path), "--z", "9"]) == 2

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["hecke", "apply", "--op", "1", "--p", "3",
                     "--in", missing, "--out", str(tmp_path / "out.json")]) == 2
        assert main(["sums", "compute", "--kind", "S", "--in", missing, "--z", "9"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("missing.json" in line for line in err)

    def test_mixed_prime_context_exits_2(self, tmp_path):
        rng = random.Random(2)
        field = CoefficientField.random(rng, p=3, support=3, sqrt_parts=True)
        src = tmp_path / "p3.json"
        write_coefficient_field(field, src)
        assert main(["hecke", "apply", "--op", "1", "--p", "5",
                     "--in", str(src), "--out", str(tmp_path / "out.json")]) == 2

    def test_report_missing_inputs_exits_2(self, tmp_path):
        field = CoefficientField.ones_ball(9)
        src = tmp_path / "ones.json"
        write_coefficient_field(field, src)
        # L6.3i needs an eigenvalue for p, but no table is supplied
        assert main(["sums", "report", "--which", "L6.3i", "--in", str(src),
                     "--z", "81", "--p", "3", "--d", "1"]) == 2

    def test_same_seed_same_output(self, capsys):
        argv = ["--json", "geom", "verify-cusp", "--T", "2", "--samples", "40", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_console_script_entry(self):
        proc = subprocess.run([sys.executable, "-m", "h4hecke.cli", "quat", "reps", "--p", "3"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 4


def _exit_code(argv, time_limit, seconds=30):
    """main(argv)'s exit code, argparse's SystemExit included, within a time limit."""
    with time_limit(seconds):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture
def form_files(tmp_path):
    """A valid one-mode form file, and two whose r or coefficient is NaN."""
    paths = {name: tmp_path / f"{name}.json" for name in ("form", "nan_r", "nan_coeff")}
    write_spectral_form(SpectralForm.from_dict(1.0, {(1, 0, 0): 1.0}), paths["form"])
    paths["nan_r"].write_text('{"r": NaN, "entries": [{"beta": [1, 0, 0], "re": 1.0, "im": 0.0}]}')
    paths["nan_coeff"].write_text('{"r": 1.0, "entries": [{"beta": [1, 0, 0], "re": NaN, "im": 0.0}]}')
    return {name: str(path) for name, path in paths.items()}


@pytest.fixture
def bad_files(tmp_path):
    """A valid coefficient file, function file, params file and 3-prime table, and malformed files of each kind."""
    texts = {
        "coeff.json": '{"p": 7, "entries": [{"beta": [1, 0, 0], "re": ["1/2", "1"], "im": ["0", "0"]}]}',
        "coeff_entries_5.json": '{"entries": 5}',
        "coeff_row_list.json": '{"entries": [[1, 0, 0]]}',
        "coeff_list.json": '[{"beta": [1, 0, 0], "re": ["1"]}]',
        "coeff_frac_beta.json": '{"entries": [{"beta": [1.5, 0, 0], "re": ["1"]}]}',
        "coeff_float_p.json": '{"p": 3.5, "entries": [{"beta": [1, 0, 0], "re": ["1", "1"]}]}',
        "coeff_str_p.json": '{"p": "3", "entries": [{"beta": [1, 0, 0], "re": ["1", "1"]}]}',
        "coeff_huge.json": '{"p": 7, "entries": [{"beta": [1, 0, 0], "re": ["%d", "0"]}]}' % 10 ** 400,
        "form_frac_beta.json": '{"r": 1.0, "entries": [{"beta": [1.5, 0, 0], "re": 1.0, "im": 0.0}]}',
        "form_huge_beta.json": '{"r": 1.0, "entries": [{"beta": [1e300, 0, 0], "re": 1.0, "im": 0.0}]}',
        "form_list.json": '[{"r": 1.0}]',
        "form_entries_3.json": '{"r": 1.0, "entries": 3}',
        "csv_ok.csv": "y,value\n1,1\n2,0.5\n",
        "csv_empty.csv": "",
        "csv_header_only.csv": "y,value\n",
        "csv_one_column.csv": "y,value\n1\n",
        "csv_nan_row.csv": "y,value\n1,1\n2,nan\n3,0.5\n",
        "csv_to_32.csv": "y,value\n1,1\n2,0.9\n4,0.8\n8,0.7\n16,0.6\n32,0.5\n",
        "lam_short_row.csv": "p,lambda1,lambda2,lambda3\n3,1.0,0.5\n",
        "lam_x_p.csv": "p,lambda1,lambda2,lambda3\nx,1,1,1\n",
        "lam_row_4.csv": "p,lambda1,lambda2,lambda3\n3,1.0,0.5,0.1\n4,0.2,0.1,1.5\n",
        "csv_x_y.csv": "y,value\n1,1\nx,2\n",
        "csv_x_value.csv": "y,value\n1,1\n2,x\n",
        "lam_3_primes.csv": "p,lambda1,lambda2,lambda3\n3,1.0,0.5,0.1\n5,0.2,0.1,1.5\n7,0.3,0.4,1.2\n",
        "lam_one_row.csv": "p,lambda1,lambda2,lambda3\n3,1.0,0.5,0.1\n",
        "lam_inf_row.csv": "p,lambda1,lambda2,lambda3\n3,1.0,0.5,0.1\n5,inf,0.1,1.5\n7,0.3,0.4,1.2\n",
        "lam_big_lam1.csv": "p,lambda1,lambda2,lambda3\n3,3.0,0.5,0.1\n5,0.2,0.1,1.5\n7,0.3,0.4,1.2\n"
                            "11,0.5,0.2,1.1\n13,0.1,0.3,1.3\n",
        "params.json": '{"delta": 0.5, "eps": 0.5, "A": 10}',
        "params_list.json": "[0.5, 0.5, 10]",
        "params_a_5.json": '{"delta": 0.5, "eps": 0.5, "A": 10, "a": 5}',
        "params_nan_delta.json": '{"delta": NaN, "eps": 0.5, "A": 10}',
        "params_nan_b.json": '{"delta": 0.5, "eps": 0.5, "A": 10, "b": [NaN]}',
        "params_huge_A.json": '{"delta": 0.5, "eps": 0.5, "A": 1e308}',
    }
    paths = {"out": str(tmp_path / "out.json")}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths[name.split(".")[0]] = str(tmp_path / name)
    return paths


# sums report without an option its inequality reads, and the option the error line names
_REPORT_MISSING_OPTION = [
    (["sums", "report", "--which", "Cor6.2", "--in", "{coeff}", "--z", "9", "--d", "3"], "--lambda-table"),
    (["sums", "report", "--which", "L6.3i", "--in", "{coeff}", "--z", "9", "--d", "1"], "--p"),
    (["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--K", "1"], "--window-P"),
]


_HUGE = str(10 ** 400)  # past the double range

_NO_ODD_PRIME = "is below 3: [P/2, P] holds no odd prime"
# refused input, and the one error line that names it
_REFUSED_WITH_MESSAGE = [
    (["sums", "report", "--which", "L6.4b", "--in", "{coeff}", "--z", "9", "--K", "1", "--window-P", "0"],
     f"window bound P = 0 {_NO_ODD_PRIME}"),
    (["sums", "report", "--which", "L6.5", "--in", "{coeff}", "--z", "9", "--K", "1", "--ell", "1",
      "--window-P", "0", "--lambda-table", "{lam_3_primes}"], f"window bound P = 0 {_NO_ODD_PRIME}"),
    (["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--K", "1", "--window-P=-5"],
     f"window bound P = -5 {_NO_ODD_PRIME}"),
    (["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--K", "1", "--window-P", "2.5"],
     f"window bound P = 2.5 {_NO_ODD_PRIME}"),
    (["sums", "report", "--which", "L6.3iii", "--in", "{coeff}", "--z", "9", "--p", "0", "--c", "1", "--k", "1",
      "--ell", "1"], "p must be an odd prime, got 0"),
    (["sums", "report", "--which", "Prop6.1", "--in", "{coeff}", "--z", "9", "--p", "4", "--k", "1",
      "--lambda-table", "{lam_row_4}"], "p must be an odd prime, got 4"),
    (["sums", "report", "--which", "L6.3ii", "--in", "{coeff}", "--z", "9", "--p", "1", "--d", "1", "--ell", "1",
      "--lambda-table", "{lam_row_4}"], "p must be an odd prime, got 1"),
    (["asym", "verify", "--f", "{csv_x_y}", "--params", "{params}"], "function file line 3: y must be a number, got 'x'"),
    (["asym", "verify", "--f", "{csv_x_value}", "--params", "{params}"],
     "function file line 3: value must be a number, got 'x'"),
    (["sums", "partition", "--y", "1e6", "--lambda-table", "{lam_x_p}"],
     "lambda table line 2: p must be a number, got 'x'"),
]


class TestBadInputsExit2:
    # each argv once hung, ended in a traceback, exited 1, or printed OK on zero samples
    @pytest.mark.parametrize("argv", [
        ["maass", "parseval", "--form", "{form}", "--y", "nan"],
        ["maass", "parseval", "--form", "{form}", "--y", "1e308"],
        ["maass", "cusp", "--form", "{form}", "--T", "nan"],
        ["maass", "cusp", "--form", "{form}", "--T", "inf"],
        ["maass", "cusp", "--form", "{form}", "--T", "1e308"],
        ["maass", "eval", "--form", "{form}", "--point", "0,0,0,1e308"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "nan"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "100000"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", "--h", "nan"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", "--h", "0"],
        ["maass", "eval", "--form", "{nan_r}", "--point", "0.1,0.2,0.3,1"],
        ["maass", "parseval", "--form", "{nan_r}", "--y", "1"],
        ["maass", "cusp", "--form", "{nan_r}", "--T", "2"],
        ["maass", "parseval", "--form", "{nan_coeff}", "--y", "1"],
        ["hecke", "verify-relation", "--p", "3", "--support", "400"],
        ["hecke", "commute", "--p", "3", "--q", "5", "--support", "400"],
        ["hecke", "verify-relation", "--p", "3", "--trials", "0"],
        ["hecke", "verify-relation", "--p", "3", "--support", "0"],
        ["hecke", "commute", "--p", "3", "--q", "5", "--trials=-1"],
        ["hecke", "commute", "--p", "3", "--q", "5", "--support", "0"],
        ["geom", "verify-cusp", "--samples", "0"],
        ["geom", "verify-cusp", "--T", "1e308", "--samples", "3"],
        ["maass", "parseval", "--form", "{form}", "--y", "150"],
        ["hecke", "apply", "--op", "1", "--p", "3", "--in", "{coeff_entries_5}", "--out", "{out}"],
        ["sums", "compute", "--kind", "S", "--in", "{coeff_entries_5}", "--z", "9"],
        ["hecke", "apply", "--op", "1", "--p", "3", "--in", "{coeff_row_list}", "--out", "{out}"],
        ["sums", "compute", "--kind", "S", "--in", "{coeff_row_list}", "--z", "9"],
        ["maass", "eval", "--form", "{form_list}", "--point", "0.1,0.2,0.3,1"],
        ["maass", "eval", "--form", "{form_entries_3}", "--point", "0.1,0.2,0.3,1"],
        ["asym", "verify", "--f", "{csv_empty}", "--params", "{params}"],
        ["asym", "verify", "--f", "{csv_header_only}", "--params", "{params}"],
        ["asym", "verify", "--f", "{csv_one_column}", "--params", "{params}"],
        ["sums", "partition", "--y", "1e6", "--lambda-table", "{lam_short_row}"],
        ["asym", "verify", "--f", "{csv_ok}", "--params", "{params_list}"],
        ["asym", "verify", "--f", "{csv_ok}", "--params", "{params_a_5}"],
        ["sums", "compute", "--kind", "R", "--in", "{coeff}", "--z", "9"],
        ["sums", "partition", "--y", "1e80", "--lambda-table", "{lam_3_primes}"],
        ["sums", "report", "--which", "Cor6.2", "--in", "{coeff}", "--z", "9", "--d", "999999937",
         "--lambda-table", "{lam_3_primes}"],
        ["sums", "compute", "--kind", "S", "--in", "{coeff_list}", "--z", "9"],
        ["sums", "compute", "--kind", "S", "--in", "{coeff_frac_beta}", "--z", "9"],
        ["maass", "eval", "--form", "{form_frac_beta}", "--point", "0.1,0.2,0.3,1"],
        *[argv for argv, _ in _REPORT_MISSING_OPTION],
        ["maass", "eval", "--form", "{form_huge_beta}", "--point", "0.1,0.2,0.3,1"],
        ["maass", "laplace-check", "--beta", f"{_HUGE},0,0", "--r", "1"],
        ["geom", "act", "--matrix", _HUGE, *["0"] * 11, _HUGE, "0", "0", "0", "--point", "0,0,0,0.5"],
        ["geom", "act", "--matrix", "0", "0", "0", "0", "1", *["0"] * 3, "-1", *["0"] * 7, "--point", "0,0,0,1e-320"],
        ["geom", "verify-cusp", "--T", "2", "--samples", "1000000000000", "--seed", "0"],
        ["sums", "partition", "--y", "1e8", "--lambda-table", "{lam_inf_row}"],
        ["asym", "verify", "--f", "{csv_nan_row}", "--params", "{params}"],
        ["asym", "verify", "--f", "{csv_to_32}", "--params", "{params_nan_delta}"],
        ["asym", "verify", "--f", "{csv_to_32}", "--params", "{params_nan_b}"],
        ["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--K", "1", "--window-P", "1e7"],
        ["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--K", "1", "--window-P", "1e300"],
        ["quat", "reps", "--p", "1000003"],
        ["sums", "compute", "--kind", "R", "--in", "{coeff}", "--p", "1000003", "--ell", "1", "--d", "1", "--z", "9"],
        ["quat", "verify-lemmas", "--p", "3", "--bound", "100000"],
        ["hecke", "verify-relation", "--p", "1000000000000000000000000000057", "--trials", "1"],
        ["quat", "verify-lemmas", "--p", "3", "--bound", "3", "--q", "1000000000000000000000000000057"],
        ["sums", "compute", "--kind", "S", "--in", "{coeff}", "--z", "1/0"],
        ["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "1/0", "--K", "1", "--window-P", "6"],
        ["hecke", "commute", "--p", "0", "--q", "5"],
        ["hecke", "commute", "--p", "3", "--q", "0"],
        ["hecke", "commute", "--p", "-3", "--q", "5"],
        ["hecke", "commute", "--p", "211", "--q", "223", "--trials", "1", "--support", "6"],
        ["quat", "enum", "--norm", "1000000"],
        ["quat", "enum", "--norm", "1000000000000000000000000000057"],
        ["quat", "verify-lemmas", "--p", "997", "--bound", "64"],
        ["quat", "verify-lemmas", "--p", "997", "--bound", "18"],
        ["quat", "verify-lemmas", "--p", "23", "--bound", "64"],
        ["hecke", "apply", "--op", "1", "--p", "3", "--in", "{coeff_float_p}", "--out", "{out}"],
        ["hecke", "apply", "--op", "1", "--p", "3", "--in", "{coeff_str_p}", "--out", "{out}"],
        # an overflow in a report side, K < 0, an exponent past sums.MAX_EXPONENT, and a step h below the
        # resolution of the point: each once ended in a traceback, ran past 30 s, or printed inf or nan
        *[["sums", "report", "--which", which, "--in", "{coeff}", "--z", "200", "--lambda-table", table, *extra]
          for which, table, extra in [
              ("Prop6.1", "{lam_big_lam1}", ["--p", "3", "--k", "400"]),
              ("L6.5", "{lam_big_lam1}", ["--K", "1", "--ell", "400", "--window-P", "6"]),
              ("Prop6.1", "{lam_big_lam1}", ["--p", "3", "--k", "2", "--const-A", "1e300"]),
              ("L6.5", "{lam_big_lam1}", ["--K", "400", "--ell", "1", "--window-P", "14", "--const-B", "5"]),
              ("L6.5", "{lam_big_lam1}", ["--K", "1e300", "--ell", "1", "--window-P", "14", "--const-B", "5"]),
              ("L6.5", "{lam_big_lam1}", ["--K=-1", "--ell", "1", "--window-P", "14"]),
              ("L6.4a", "{lam_big_lam1}", ["--K", "1e308", "--window-P", "14"]),
              ("Prop6.1", "{lam_3_primes}", ["--p", "3", "--k", "100000"]),
          ]],
        ["sums", "compute", "--kind", "R", "--in", "{coeff}", "--p", "3", "--ell", "1000000000", "--z", "9"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", "--h", "1e-160"],
        ["maass", "laplace-check", "--beta", "1,0,0", "--r", "1", "--h", "1e-300"],
        # an exact sum past the double range once ended in OverflowError from float()
        ["sums", "compute", "--kind", "S", "--d", "1", "--z", "9", "--in", "{coeff_huge}"],
        # 2 A max(M, 1) past the double range once sent compute_R's search past it: OverflowError
        ["asym", "compute-R", "--A", "1e308", "--M", "3", "--eps", "0.01"],
        ["asym", "compute-R", "--A", "1e300", "--M", str(10 ** 30), "--eps", "0.5"],
        ["asym", "compute-R", "--A", "10", "--M", _HUGE, "--eps", "0.5"],
        ["asym", "verify", "--f", "{csv_to_32}", "--params", "{params_huge_A}"],
        # each once ended in a traceback, exited 0 on an empty window or a p that is not prime, or named
        # neither the field nor the line it could not read
        *[argv for argv, _ in _REFUSED_WITH_MESSAGE],
        # a point of three coordinates, a beta of two and a count that is not an integer
        ["maass", "eval", "--form", "{form}", "--point", "1,2,3"],
        ["geom", "reduce", "--point", "1,2,3"],
        ["maass", "laplace-check", "--beta", "1,2", "--r", "1"],
        ["hecke", "verify-relation", "--p", "3", "--trials", "1.5"],
    ])
    def test_exits_2_with_one_error_line(self, argv, form_files, bad_files, capsys, time_limit):
        assert _exit_code([a.format(**form_files, **bad_files) for a in argv], time_limit) == 2
        err = capsys.readouterr().err
        # argparse adds its usage lines before the one error line
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", _REPORT_MISSING_OPTION)
    def test_missing_report_option_is_named(self, argv, flag, bad_files, capsys, time_limit):
        # these once printed only the keyword: usage error: 'lam_table', 'p' or 'window'
        assert _exit_code([a.format(**bad_files) for a in argv], time_limit) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"usage error: sums report --which {argv[3]} needs {flag}", err

    @pytest.mark.parametrize("argv,message", _REFUSED_WITH_MESSAGE)
    def test_refusal_names_the_input(self, argv, message, bad_files, capsys, time_limit):
        assert _exit_code([a.format(**bad_files) for a in argv], time_limit) == 2
        assert capsys.readouterr().err.strip() == f"usage error: {message}"

    def test_missing_window_prime_is_named(self, bad_files, capsys, time_limit):
        # this once printed only "usage error: 7", the first prime of the window [7, 14]
        argv = ["sums", "report", "--which", "L6.5", "--in", bad_files["coeff"], "--z", "9", "--K", "1",
                "--ell", "1", "--window-P", "14", "--lambda-table", bad_files["lam_one_row"]]
        assert _exit_code(argv, time_limit) == 2
        assert capsys.readouterr().err.strip() == "usage error: eigenvalue table missing primes [7, 11, 13]"

    def test_key_error_message_printed_without_quotes(self, bad_files, capsys, time_limit):
        argv = ["sums", "report", "--which", "Cor6.2", "--in", bad_files["coeff"], "--z", "9", "--d", "11",
                "--lambda-table", bad_files["lam_3_primes"]]
        assert _exit_code(argv, time_limit) == 2
        assert capsys.readouterr().err.strip() == "usage error: eigenvalue table missing the prime 11 of d = 11"


class TestCuspCrossCheck:
    # the difference was once divided by max(|value|, 1e-300), so at T = 55 the sides
    # 1.765e-305 and 6.009e-306 read 1.2e-5 apart and passed, as did a subnormal or zero side
    def test_disagreeing_sides_fail(self, form_files, capsys, time_limit):
        argv = ["maass", "cusp", "--form", form_files["form"], "--T", "55", "--cross-check"]
        assert _exit_code(argv, time_limit) == 1
        rel = float(re.search(r"relative difference ([^)]+)\)", capsys.readouterr().err).group(1))
        assert 0.6 < rel < 0.7

    @pytest.mark.parametrize("T", ["58", "60"])
    def test_subnormal_or_zero_side_refused(self, T, form_files, capsys, time_limit):
        argv = ["maass", "cusp", "--form", form_files["form"], "--T", T, "--cross-check"]
        assert _exit_code(argv, time_limit) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: the coefficient side at T = {float(T)} is ")
        assert "0 or subnormal" in err and len(err.splitlines()) == 1


_FUZZ_FLOATS = ["nan", "inf", "-inf", "-1", "0", "0.5", "1e308", "x"]
_FUZZ_COUNTS = ["-1", "0", "1"]
# (fixed arguments, float flags, count flags) of every maass, hecke and geom
# command that takes a float or count flag, of asym compute-R, of sums partition, and of the
# sums reports that read --K, --window-P or --p
_FUZZ_COMMANDS = [
    (["maass", "parseval", "--form", "{form}"], ["--y"], []),
    (["maass", "cusp", "--form", "{form}"], ["--T"], []),
    (["maass", "cusp", "--form", "{form}", "--cross-check"], ["--T"], []),
    (["maass", "laplace-check", "--beta", "1,0,0"], ["--r", "--h"], []),
    (["hecke", "verify-relation", "--p", "3"], [], ["--trials", "--support"]),
    (["hecke", "commute", "--p", "3", "--q", "5"], [], ["--trials", "--support"]),
    (["geom", "verify-cusp"], ["--T"], ["--samples"]),
    (["asym", "compute-R"], ["--A", "--eps"], ["--M"]),
    (["sums", "partition", "--lambda-table", "{lam_3_primes}"], ["--y"], []),
    (["sums", "report", "--which", "L6.4a", "--in", "{coeff}", "--z", "9", "--window-P", "14"], ["--K"], []),
    (["sums", "report", "--which", "L6.4b", "--in", "{coeff}", "--z", "9", "--K", "1"], ["--window-P"], []),
    (["sums", "report", "--which", "L6.5", "--in", "{coeff}", "--z", "9", "--K", "1", "--ell", "1",
      "--lambda-table", "{lam_3_primes}"], ["--window-P"], []),
    (["sums", "report", "--which", "L6.3iii", "--in", "{coeff}", "--z", "9", "--c", "1", "--k", "1", "--ell", "1"],
     [], ["--p"]),
]


class TestCliFuzz:
    def test_exit_codes_without_traceback(self, form_files, bad_files, capsys, time_limit):
        # every command with every combination of its pools' values, about 400 calls in 0.1 s: a
        # random draw of 120 seldom met compute-R's two overflowing inputs (A = 1e308, eps = 0.5, M = 0, 1)
        for fixed, floats, counts in _FUZZ_COMMANDS:
            for values in itertools.product(*[_FUZZ_FLOATS] * len(floats), *[_FUZZ_COUNTS] * len(counts)):
                # the flag=value form lets a value start with "-"
                argv = [a.format(**form_files, **bad_files) for a in fixed] + [
                    f"{flag}={value}" for flag, value in zip(floats + counts, values)]
                capsys.readouterr()
                code = _exit_code(argv, time_limit)
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv, code, err)
                assert "Traceback" not in err, (argv, err)
