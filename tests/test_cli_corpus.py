"""The CLI's bytes, pinned: the corpus digest of ``cli_corpus`` against the
recorded one.

A change to any output byte or exit code changes the digest; when that
change is intended, print the new digest with
``PYTHONPATH=src python tests/cli_corpus.py`` and say in the change log what
moved.
"""

from cli_corpus import corpus_digest

DIGEST = "e08d132aacf3ee51ac34b0b05a8b4e0ba87cbbe0bbaa0d55eb9d7b0c2111e690"


def test_cli_bytes_match_the_pinned_corpus_digest():
    digest, count = corpus_digest()
    assert count == 846
    assert digest == DIGEST
