import fanetsim


def test_every_exported_name_resolves():
    assert len(fanetsim.__all__) == len(set(fanetsim.__all__))
    missing = [name for name in fanetsim.__all__ if not hasattr(fanetsim, name)]
    assert missing == []
