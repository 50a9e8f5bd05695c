"""Unit tests for attribute types (repro.catalog.types)."""

import pytest

from repro.catalog.types import AttributeType
from repro.errors import SchemaError


class TestDefaults:
    def test_int_width(self):
        assert AttributeType.INT.default_width == 4

    def test_float_width(self):
        assert AttributeType.FLOAT.default_width == 8

    def test_str_width(self):
        assert AttributeType.STR.default_width == 16


class TestValidate:
    def test_int_accepts_int(self):
        assert AttributeType.INT.validate(7) == 7

    def test_int_rejects_bool(self):
        with pytest.raises(SchemaError):
            AttributeType.INT.validate(True)

    def test_int_rejects_string_number(self):
        with pytest.raises(SchemaError):
            AttributeType.INT.validate("7")

    def test_float_accepts_int_and_coerces(self):
        value = AttributeType.FLOAT.validate(3)
        assert value == 3.0
        assert isinstance(value, float)

    def test_float_rejects_bool(self):
        with pytest.raises(SchemaError):
            AttributeType.FLOAT.validate(False)

    def test_float_rejects_nan_but_not_infinity(self):
        with pytest.raises(SchemaError, match="nan"):
            AttributeType.FLOAT.validate(float("nan"))
        assert AttributeType.FLOAT.validate(float("inf")) == float("inf")
        assert AttributeType.FLOAT.validate(float("-inf")) == float("-inf")

    def test_str_accepts_str(self):
        assert AttributeType.STR.validate("x") == "x"

    def test_str_rejects_bytes(self):
        with pytest.raises(SchemaError):
            AttributeType.STR.validate(b"x")


class TestInfer:
    def test_infer_int(self):
        assert AttributeType.infer(5) is AttributeType.INT

    def test_infer_float(self):
        assert AttributeType.infer(5.5) is AttributeType.FLOAT

    def test_infer_str(self):
        assert AttributeType.infer("s") is AttributeType.STR

    def test_infer_rejects_bool(self):
        with pytest.raises(SchemaError):
            AttributeType.infer(True)

    def test_infer_rejects_none(self):
        with pytest.raises(SchemaError):
            AttributeType.infer(None)
