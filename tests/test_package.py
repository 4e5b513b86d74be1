"""The package's lazy top-level names resolve."""
import skewflow


def test_every_public_name_resolves():
    # a stale _EXPORTS entry raises AttributeError here
    for name in skewflow.__all__:
        getattr(skewflow, name)
