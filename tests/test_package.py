import daodet


def test_every_public_name_resolves():
    assert [name for name in daodet.__all__ if not hasattr(daodet, name)] == []
