"""Byte-identity of the command line outputs.

Each case runs ucf.cli.main in process and compares the sha256 of its
stdout, stderr and exit code (and of the trace file, where one is written)
with a recorded digest, so a change meant to keep outputs unchanged is
checked by the tier-1 run.  The bounds and sweep cases use powers of two
for m only, so every float in them comes from +, -, *, / and sqrt, which
IEEE arithmetic rounds exactly; math.log2 of any other m is left out, since
another C library may round it in the last place.  When a change alters an output on purpose,
regenerate the digest with `golden_digest` and say so in the change log.
"""

import hashlib

import pytest

from ucf.cli import main

SEPARATING_JSON = '{"n": 4, "sets": [[4], [3, 4], [2, 3, 4], [1, 2, 3, 4]]}\n'
NON_SEPARATING_JSON = '{"n": 3, "sets": [[1, 2], [1, 2, 3]]}\n'
TEXT_WITH_EMPTY_SET = "3\n-\n3\n2 3\n1 2 3\n"

CASES = {
    "construct-intermediate-trace": (
        ["construct", "--kind", "intermediate", "--n", "12", "--m", "300", "--trace", "{trace}"],
        "047ec9e9493c504cc76b8c90cb5b74ac2c5e11800d42beccf2a0fe965309996c",
    ),
    "construct-intermediate-large": (
        ["construct", "--kind", "intermediate", "--n", "40", "--m", "1000"],
        "452c625b66f71ea3cfb110a217d7acb3d12593bb19d9eb9ac87624a097a7c0f4",
    ),
    "construct-staircase-text": (
        ["construct", "--kind", "staircase", "--n", "5", "--format", "text"],
        "0deac9df9e7b25bb671065b3067dec6d44845724dbf83aedf20ba1ef8717ce66",
    ),
    "search-l1": (
        ["search", "--n", "5", "--m", "7"],
        "e9637817377d272d74cf34ea82df582aa828a1eb0d68fcb5c62d394565d1cf45",
    ),
    "search-l2": (
        ["search", "--n", "4", "--m", "6", "--l", "2"],
        "9d5f2f3202b77a078107801005d72bad0eff18062252210526964af83bfc21ab",
    ),
    "verify-all": (
        ["verify", "--suite", "all"],
        "4ea457eb039c02b18068a8696210d850ec0359765d76ffafc4314890447a26b1",
    ),
    "verify-staircase": (
        ["verify", "--suite", "staircase", "--max-n", "4"],
        "23c1d4361e3981f1c37b33cc5b5ae2fcdd41e014ff75ed1776a204d2218f381e",
    ),
    "analyze-separating-json": (
        ["analyze", "{separating}", "--l", "2"],
        "9ea53196503f8072a6c369bd7c0af92ce44254604c8d59f5dd87727b3271e978",
    ),
    "analyze-non-separating-json": (
        ["analyze", "{non_separating}"],
        "1388eeae1948166d35eafc3cc97442a7fd1a721986c813cadc98bd21fc8e9861",
    ),
    "analyze-text-empty-set": (
        ["analyze", "{text}"],
        "adeb7b0f4c884cfa68b84a2b5a7d48891110762894836ca5ab55e50e04cfdee6",
    ),
    "bounds-csv": (
        ["bounds", "--n", "6", "--m", "16"],
        "32b1540ac944c5e7519aee44001a468409d8dbcd796e83894765007f48a8d07d",
    ),
    "bounds-l2-json": (
        ["bounds", "--n", "6", "--m", "16", "--l", "2", "--format", "json"],
        "9953f8f33447fce403809b4edfaea7e083082cd949abec3244ef75103163454b",
    ),
    "bounds-widest-domain-json": (
        ["bounds", "--n", "4096", "--m", "1024", "--l", "3", "--format", "json"],
        "57781e44efb3366053661c4da9cc751165b1e6dbc33e65d867c0e5fd66f0ded5",
    ),
    "sweep-regime-csv": (
        ["sweep", "--m-max", "256", "--regime", "3", "4", "5", "6", "8"],
        "e7c0a5878192a80db8d09a5b5887b143d0e220a5e2f96e69d7a41983fdc8fbdb",
    ),
    "sweep-regime-l2-json": (
        ["sweep", "--regime", "4", "--l", "2", "--format", "json"],
        "60a10a070f8ea347b96fa9f9119ca974dee9d8b833fa5f0d0fce7cf1e3e4a2f2",
    ),
    "sweep-regime-refused": (
        ["sweep", "--regime", "3", "21"],
        "c9f372c9d280cc8d4dcea642bfd47af8216930012af85d83286df6e4461f0b8c",
    ),
}


def golden_digest(argv, tmp_path, capsys) -> str:
    """sha256 over stdout, stderr, the exit code and any trace file written
    by `ucf` with argv, whose {placeholders} name files under tmp_path."""
    files = {
        "separating": SEPARATING_JSON,
        "non_separating": NON_SEPARATING_JSON,
        "text": TEXT_WITH_EMPTY_SET,
    }
    paths = {"trace": tmp_path / "trace.json"}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    code = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr()
    h = hashlib.sha256()
    for part in (out.out, out.err, str(code)):
        h.update(part.encode("utf-8") + b"\0")
    if paths["trace"].exists():
        h.update(paths["trace"].read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_digest(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("UCF_THREADS", raising=False)
    argv, digest = CASES[name]
    assert golden_digest(argv, tmp_path, capsys) == digest, name
