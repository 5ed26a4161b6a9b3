import koopman_dh


def test_every_export_resolves():
    missing = [name for name in koopman_dh.__all__ if not hasattr(koopman_dh, name)]
    assert missing == []
