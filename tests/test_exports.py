"""Every name the package exports resolves, so ``from fasttog import *`` works."""

import fasttog


def test_every_exported_name_resolves_and_star_import_works():
    assert sorted(set(fasttog.__all__)) == sorted(fasttog.__all__)
    assert [name for name in fasttog.__all__ if not hasattr(fasttog, name)] == []
    namespace = {}
    exec("from fasttog import *", namespace)
    assert set(fasttog.__all__) <= namespace.keys()
