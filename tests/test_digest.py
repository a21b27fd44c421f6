"""Every output ``tools/digest.py`` hashes matches ``tools/digest.json``, bit for bit.

The comparison is the script's ``--compare tools/digest.json``, run in
process. numpy's samplers fix the streams, so under a numpy other than the
file's the test skips, as the script compares nothing there.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

_TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("digest", _TOOLS / "digest.py")
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def test_outputs_match_the_recorded_digest():
    reference = json.loads((_TOOLS / "digest.json").read_text(encoding="utf-8"))
    if reference["numpy"] != np.__version__:
        pytest.skip(f"tools/digest.json was made under numpy {reference['numpy']}, "
                    f"this is {np.__version__}: streams may differ")
    differing = digest.compare(reference["arrays"], digest.digests())
    assert not differing, f"{len(differing)} digests differ:\n" + "\n".join(differing)
