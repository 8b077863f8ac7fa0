import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FIELD_STRINGS = ("padic:2", "padic:5", "tadic:3", "tadic:0")

# the fields the trusted-construction guard runs on: both kinds, a small and
# a large prime, and Q coefficients
GUARD_FIELDS = ("padic:2", "padic:101", "tadic:3", "tadic:0")


@pytest.fixture
def trusted_guard(monkeypatch):
    """Re-canonicalize every trusted construction and assert nothing changes.

    Arithmetic stores its results through ``FieldElement._trusted`` without
    canonicalizing them; under this fixture each such pair is run through
    the backend's ``canonical`` again and must come back identical, down to
    the coefficient types (compared by repr: ``1`` is not ``Fraction(1)``).
    The test fails if the guard never fired.
    """
    from dvrfilt.elements import FieldElement

    trusted = FieldElement.__dict__["_trusted"].__func__
    checked_count = [0]

    def checked(cls, spec, num, den):
        canonical = spec.backend.canonical(num, den)
        assert repr(canonical) == repr((num, den)), f"{spec}: {(num, den)!r} is not canonical"
        checked_count[0] += 1
        return trusted(cls, spec, num, den)

    monkeypatch.setattr(FieldElement, "_trusted", classmethod(checked))
    yield
    assert checked_count[0], "no trusted construction was checked"


@pytest.fixture
def valuation_guard(monkeypatch):
    """Recompute every valuation from the element's own num/den and compare.

    ``ValuationSpec.valuation`` keeps v(x) on x after its first call; under
    this fixture each call's result, cache hit or not, is checked against a
    fresh ``backend.valuation`` of x (``None`` standing for v(0) = infinity).
    The test fails if no call was a cache hit.
    """
    from dvrfilt.valuation import ExtInt, ValuationSpec

    valuation = ValuationSpec.valuation
    hits = [0]

    def checked(self, x):
        cached = getattr(x, "_v", None) is not None
        v = valuation(self, x)
        fresh = None if x.is_zero else self.field.backend.valuation(x)
        assert type(v) is ExtInt and v.value == fresh, f"{self.field}: {x!r} valued {v!r}"
        hits[0] += cached
        return v

    monkeypatch.setattr(ValuationSpec, "valuation", checked)
    yield
    assert hits[0], "no valuation call was a cache hit"
