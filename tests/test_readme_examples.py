"""The README's CLI examples, the scripts under `scripts/`, a few
valuative-subgroup commands, one command per C-pair and C-group verdict
shape and commands that read Laurent class tables print the same bytes as
when their hashes were pinned.

Each `valdetect ...` command of the README's `sh` blocks runs through
`cli.main` in-process; each script's `main()` runs the same way.  The sha256
of stdout is compared with the pinned hash, so any change to a payload,
a witness or the JSON layout shows here.  A deliberate output change must
re-pin the hash and list the difference in CHANGES.md.
"""

import hashlib
import pathlib
import re
import runpy
import shlex

import pytest

from valdetect.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (subcommand, sha256 of stdout), in README order
README_DIGESTS = [
    ("levels",
     "7f50a4ea86b06feafcae621d80caeb23fb6675f95fe5355c62646bd28dcc8383"),
    ("eval",
     "8f329e54034e8106679ec329e9bcaa25daf2745354fcc1e0fb91735f86806676"),
    ("cpair",
     "202802f9b24c0e0aab9fafdb97c9d9e3033fac827fbef8f4388ea1840e003ac9"),
    ("k2",
     "e7b7a7517f177beb39f34b7e1b4a96d47f78a57c3a97af66537e53cd8991b53f"),
    ("tame",
     "2e9ec3e1cb83cbc6731aba32a9c8337562152ed3bc66e0afeec4b021c4506e78"),
    ("detect",
     "a60dd3ca4006a95485ed9716cb801356026879597b2b823612b97843effbaab3"),
    ("detect",
     "57e94e77f8058fba9210fc913d1983dd0e096ff24fea8067ef6c4c32e30f1f47"),
    ("cl-check",
     "04c12c5656bf0934e11a5e80fa621ca9a621b1328a16c9a41d7645cf1e27f577"),
]
DEMO_DIGEST = \
    "6e9b5af154202b80ee66326a709ed3558b0e42b0d579d2100f39da8d2b945f87"
# (script, sha256 of stdout) of the other scripts under scripts/
SCRIPT_DIGESTS = [
    ("aggressive_probe.py",
     "bcd2d10ae239c3c5c25c47c7b548c4d13f4aa799ebd116abd290b6794d3d9b85"),
    ("k2_survey.py",
     "6eec18d751482f609afd23abbf1ab4045c972b21888a0070e0e9ad5d0022f7ea"),
]

F7T = ["--field", "laurent(gf:7,t)", "--window", "{ell=3,n=1,gens=[t,const]}"]
F5ST = ["--field", "laurent(laurent(gf:5,s),t)",
        "--window", "{ell=2,n=1,gens=[t,s,const]}"]
F7ST = ["--field", "laurent(laurent(gf:7,s),t)",
        "--window", "{ell=3,n=1,gens=[t,s,const]}"]

# (argv, sha256 of stdout) of the valuative-subgroup payloads outside the
# README: a verdict that holds, an l = 2 pair-clause Violation with its
# witness_pair, an l = 2 verdict that holds, and a unit-group payload
SUBGROUP_DIGESTS = [
    (["valuative", *F7T, "--chars", "t"],
     "6183d23216ab8d4e275dca20d9c17d6af77424641563a90496050dfc9866b6dc"),
    (["valuative", *F5ST, "--chars", "const", "--height", "4"],
     "65e8e1b5bc00bb7d36aff93cdcaf088e00fa2c09c5b89fa4906a554670aaf49d"),
    (["valuative", *F5ST, "--chars", "t;s", "--height", "4"],
     "aff204a0e020234009d998a93ee2dbc324c1f6ea31f91a22a9c3a275852e6810"),
    (["canonical-valuation", *F7ST, "--chars", "t;s", "--height", "4",
      "--test-elements", "s;t;1+t;3"],
     "ff0f1167eec43acebfdf35f02a80712aff1fd9e0afbc976307eb2b99c34bffce"),
]

F7UT = "laurent(ratfunc(gf:7,u),t)"

# (argv, sha256 of stdout) of one command per verdict payload shape: exact
# CPairs from both methods (on F7(u)((t)) below height l^n = 3 too, where
# the span prefix settles them), a K-theoretic NotCPair with its witness,
# NotCGroup with its pair and witness, exact CGroups, and CPairUpToBound
# and CGroupUpToBound ("exact": false) from the constants of height 0
VERDICT_DIGESTS = [
    (["cpair", "--field", F7UT, "--window", "{ell=3,n=1,gens=[t,u]}",
      "--f", "t", "--g", "u", "--height", "2", "--method", "both"],
     "64bcd24f220951656eb73cedde2ac644f0481bcefced3eefa4c64850e68c85a1"),
    (["cpair", "--field", F7UT, "--window", "{ell=3,n=1,gens=[t,u]}",
      "--f", "t", "--g", "u", "--height", "3", "--method", "both"],
     "96ff9523561122ee84bddd44cdef08edc03e8459f1070a93f397066b64a77199"),
    (["cpair", *F7T, "--f", "t", "--g", "const", "--height", "8",
      "--method", "both"],
     "ad22404cf9c33db88c930c41dd5289b04c3d0cd299eec3b62d55dbe684038662"),
    (["cpair", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[u,u-3]}", "--f", "u", "--g", "u-3",
      "--height", "4", "--method", "ktheory"],
     "1d3897a97dcfc59e1fae2c535a369c7ca94304bf5890fbe37d2c75dafbb57c55"),
    (["cgroup", "--field", F7UT, "--window", "{ell=3,n=1,gens=[t,u,u-3]}",
      "--gens", "t;u", "--height", "2"],
     "7404e238ae376303e45a0e698f44b56166faeb308308b3151e1655d116bfe913"),
    (["cgroup", "--field", F7UT, "--window", "{ell=3,n=1,gens=[t,u,u-3]}",
      "--gens", "t;u", "--height", "3"],
     "c2a32343f92a0b9350a3d3fe26839a16640ea8e766094b08a4ac6bd96d58f4b1"),
    (["cgroup", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[u,u-3,const]}", "--gens", "u;u-3",
      "--height", "2"],
     "a101d06935204d3c6bc9eb3481b9514989080a661c2c9b35a06cab7ad33a9605"),
    (["cgroup", *F7ST, "--gens", "t;s;const", "--height", "8"],
     "6aee6f531ada0cd355bf848c58ede7c41e1c2d3355f218c21cdaef6cdea6280f"),
    (["cpair", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[u,u-3]}", "--f", "u", "--g", "u-3",
      "--height", "0", "--method", "both"],
     "eeaef52cab5cf6312039e7f15de590c792a352a7502d2db3515bc3984dd8d36f"),
    (["cgroup", "--field", "ratfunc(gf:7,u)",
      "--window", "{ell=3,n=1,gens=[u,u-3,const]}", "--gens", "u;u-3",
      "--height", "0"],
     "a2ae2718360a400b65e944d6d19d98e8f6c28b2611fe5f1e6c637a5eea9cc0c9"),
]


def _f7ut(gens):
    return ["--field", F7UT, "--window", f"{{ell=3,n=1,gens=[{gens}]}}"]


# (argv, sha256 of stdout) of commands that read Laurent class tables on
# F7(u)((t)) at heights 1, 2 and 3, below and at l^n = 3, and on
# F7((s))((t)) with the top uniformizer omitted
LAURENT_TABLE_DIGESTS = [
    (["valuative", *_f7ut("t,u,u-3,const"), "--chars", "u-3;const",
      "--height", "1"],
     "ed777bcb5a446dbc15a4154630f2fe5cdf47cb0dbaf713770f00b9323680970d"),
    (["valuative", *_f7ut("t,u,u-3,const"), "--chars", "u-3;const",
      "--height", "2"],
     "d9a53198ed73d12821167da7004c93b40cdf0e47f4ff599568d3134865a80fc0"),
    (["valuative", *_f7ut("t,u,u-3,const"), "--chars", "u-3;const",
      "--height", "3"],
     "d98e5afc7a7b9670b2924eefbc5fcc28141dbb3b9cb954c12e7170b37cbf7663"),
    (["ccenter", *_f7ut("t,u,u-3,const"), "--height", "1"],
     "d336516bfc7c38a648b0bae521ac3b1869b6b0aa2979e089ad2dbd0473abe04a"),
    (["ccenter", *_f7ut("t,u,u-3,const"), "--height", "2"],
     "d11ffd46c688949c0bc6db21dcf66d412d50dede9113638f437a99f3e649661a"),
    (["ccenter", *_f7ut("t,u,u-3,const"), "--height", "3"],
     "cf2b6bc7c734e4022b49c46e5cd59c7beb74a4059d248bf1ce143f62c4f7c9ea"),
    (["cgroup", *_f7ut("t,u,const"), "--gens", "t;const", "--height", "1"],
     "0ef0929ba96fa01c2cdc39870c2c974771d32c9a5a97d2165525e9f4a639d8a9"),
    (["cgroup", *_f7ut("t,u,const"), "--gens", "t;const", "--height", "2"],
     "3e9fecdb00bd19ccd2fcac3cdc271748e6815f86a951bb88b106b77059d02d8e"),
    (["cgroup", *_f7ut("t,u,const"), "--gens", "t;const", "--height", "3"],
     "8604214f6de0654f2551b7198f524eae0d1165b33297170cd6af0f5d3bf1295b"),
    (["k2", *_f7ut("u,u-3"), "--floor", "--height", "1"],
     "90b954c0ef8c91a62db7355c10b61e893dbe4eabe008a8796e1c64f70f84490f"),
    (["k2", *_f7ut("u,u-3"), "--floor", "--height", "2"],
     "4b036bc729acaccf106cc18322ff10391555663f6ab9aa35684b97e7b7782c1c"),
    (["k2", *_f7ut("u,u-3"), "--floor", "--height", "3"],
     "777d00f6af3e061fbf0f0de5539cac21c4f7a34b03146ef6e97e99b492ceb276"),
    (["k2", *_f7ut("t,u"), "--floor", "--height", "3"],
     "e96e930c22588a374266de12a5d47ae4dd79ae4a478ba8ef8376bd837b7fc65e"),
    (["valuative", "--field", "laurent(laurent(gf:7,s),t)",
      "--window", "{ell=3,n=1,gens=[s,const]}", "--chars", "s;const",
      "--height", "4"],
     "e3f4a8b10f0e33ff956dff8b3c9e8ab97e9be80ce9328b1aa44492eb66bb6809"),
    (["valuative", "--field", "laurent(laurent(gf:7,s),t)",
      "--window", "{ell=3,n=1,gens=[s,const]}", "--chars", "s",
      "--height", "4"],
     "0a275a5a2ae83954adafc2235da9a2e5e480ea8608f40f90e1e7671f0ca3ce80"),
]


def readme_commands():
    """argv of every `valdetect ...` line of the README's sh blocks, with
    backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("valdetect "):
                out.append(shlex.split(line)[1:])
    return out


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_readme_command_is_pinned():
    assert [argv[0] for argv in readme_commands()] == \
        [name for name, _ in README_DIGESTS]


@pytest.mark.parametrize("index", range(len(README_DIGESTS)),
                         ids=[f"{i}-{name}" for i, (name, _)
                              in enumerate(README_DIGESTS)])
def test_readme_example_output_is_pinned(capsys, index):
    argv = readme_commands()[index]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == README_DIGESTS[index][1]


def test_detection_demo_output_is_pinned(capsys):
    demo = runpy.run_path(str(ROOT / "scripts" / "run_detection_demo.py"),
                          run_name="demo")
    assert demo["main"]() == 0
    assert _sha256(capsys.readouterr().out) == DEMO_DIGEST


@pytest.mark.parametrize("script,digest", SCRIPT_DIGESTS)
def test_script_output_is_pinned(capsys, script, digest):
    ns = runpy.run_path(str(ROOT / "scripts" / script), run_name="script")
    assert ns["main"]() == 0
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("argv,digest", SUBGROUP_DIGESTS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _)
                              in enumerate(SUBGROUP_DIGESTS)])
def test_subgroup_command_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("argv,digest", VERDICT_DIGESTS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _)
                              in enumerate(VERDICT_DIGESTS)])
def test_verdict_command_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest


@pytest.mark.parametrize("argv,digest", LAURENT_TABLE_DIGESTS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _)
                              in enumerate(LAURENT_TABLE_DIGESTS)])
def test_laurent_table_command_output_is_pinned(capsys, argv, digest):
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest
