import lotnn


def test_package_exports_resolve():
    assert len(set(lotnn.__all__)) == len(lotnn.__all__)
    for name in lotnn.__all__:
        assert getattr(lotnn, name) is not None
