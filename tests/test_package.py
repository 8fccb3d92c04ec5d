import copulashift


def test_every_public_name_resolves():
    missing = [name for name in copulashift.__all__ if not hasattr(copulashift, name)]
    assert missing == []
    assert len(set(copulashift.__all__)) == len(copulashift.__all__)
