import types

import torus_cables


def test_all_lists_every_public_name():
    # __all__ and the imports in __init__ are two lists of one export set;
    # a name deleted from one must be deleted from the other.
    public = {
        name
        for name, value in vars(torus_cables).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(torus_cables.__all__) == len(set(torus_cables.__all__))
    assert set(torus_cables.__all__) == public
