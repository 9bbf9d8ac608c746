import fpmods


def test_all_names_resolve_and_star_import_succeeds():
    assert len(fpmods.__all__) == len(set(fpmods.__all__))
    missing = [name for name in fpmods.__all__ if not hasattr(fpmods, name)]
    assert missing == []
    namespace = {}
    exec("from fpmods import *", namespace)
    assert set(fpmods.__all__) <= namespace.keys()
