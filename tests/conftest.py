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
