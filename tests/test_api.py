import hmtsim


def test_every_public_name_resolves():
    # `from hmtsim import *` fails on any name in __all__ that the package
    # does not define
    names = {}
    exec("from hmtsim import *", names)
    assert len(set(hmtsim.__all__)) == len(hmtsim.__all__)
    for name in hmtsim.__all__:
        assert names[name] is getattr(hmtsim, name)


def test_removed_names_are_not_exported():
    # the NoC and the memory system read the chip's ChipConfig in place:
    # neither has a config object of its own
    for name in ("Topology", "CacheConfig"):
        assert name not in hmtsim.__all__
        assert not hasattr(hmtsim, name)
