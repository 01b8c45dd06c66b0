"""Skip gate for tests that read the OwnYourData reference corpus (request
inputs, golden outputs, ``exampleInputs/*.ttl``). The repository does not
vendor the corpus; the gated tests run wherever it is present."""

import os

import pytest


def needs_corpus(path: str):
    """``skipif`` mark for a test that reads the corpus directory ``path``."""
    return pytest.mark.skipif(
        not os.path.isdir(path), reason=f"reference corpus not found: {path}"
    )
