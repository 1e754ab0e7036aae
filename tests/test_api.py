from coneglow import *  # noqa: F401,F403  fails on any stale name in __all__

import coneglow


def test_star_import_resolves_every_export():
    assert len(set(coneglow.__all__)) == len(coneglow.__all__)
    for name in coneglow.__all__:
        assert name in globals(), name
