import proxydet


def test_all_lists_each_public_name_once():
    namespace: dict = {}
    exec("from proxydet import *", namespace)  # raises on a stale entry
    assert set(proxydet.__all__) <= namespace.keys()
    assert [name for name in proxydet.__all__ if not hasattr(proxydet, name)] == []
    assert len(set(proxydet.__all__)) == len(proxydet.__all__)
