import pdskit


def test_public_surface():
    names = pdskit.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        getattr(pdskit, name)
