"""The package namespace exports only names that exist."""

import imexest


def test_every_exported_name_resolves():
    for name in imexest.__all__:
        assert getattr(imexest, name) is not None, name
