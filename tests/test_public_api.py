import inspect

import frieze


def test_all_lists_exactly_the_public_names():
    names = frieze.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    missing = [name for name in names if not hasattr(frieze, name)]
    assert missing == []
    public = {name for name, value in vars(frieze).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(names)
