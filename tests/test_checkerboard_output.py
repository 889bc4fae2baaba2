"""Golden pins of `causetkit checkerboard` output.

Each case pins the SHA-256 of stdout and the exact stderr.  The digests were
taken from the implementation that built one Spinor per lattice site and one
row dict per (t, x, helicity), so any faster output path must print the same
bytes.  The cases cover exact zeros inside the light cone (theta 0),
amplitudes whose probability underflows to 0 (theta pi/2), the mass bridge
with a Q source, and the path-sum and comparison methods.
"""

import pytest

from conftest import run_cli, sha256

MASS_Q = ("--mass", "0.37", "--eps", "0.61", "--initial", "Q")
QUARTER_TURN_Q = ("--theta", "1.5707963267948966", "--initial", "Q")

GOLDEN = [
    (("--steps", "250"),
     "b77019470c68481d5f99998a69a8b501fed03d34379207fa32ab7e86e824d243", ""),
    (("--steps", "250", "--emit", "json"),
     "8f837eb0fed464fdd970e8235154ca1910ba12c7fdb28f7fb7f4a27f2bb0edd7", ""),
    (("--steps", "250", "--emit", "svg"),
     "1f8715c97f281d98a11840b2c36691484e4a33bd359f70566d2b7a1cf7e4540b", ""),
    (("--steps", "250", "--theta", "0"),
     "f5dc3b4634a1a626c909e57f99cc8432c3bb7dfed11159585c90db36e721d389", ""),
    (("--steps", "250", "--theta", "0", "--emit", "json"),
     "e692c105395d1b89bd6906b6c6e04bad8c8413be43aff2ec1ff71c0a214ba177", ""),
    (("--steps", "250", "--theta", "0", "--emit", "svg"),
     "cd32a320e14bb9ba26637f41d233fd6ab5a83de5e8e44f4faf9cfc897614add2", ""),
    (("--steps", "250", *QUARTER_TURN_Q),
     "a35020c34a62e32e326984531a3cbb55212e9a3a8e5203213bab829da48342f3", ""),
    (("--steps", "250", *QUARTER_TURN_Q, "--emit", "svg"),
     "953b2e29bbd69565eeeac058b03247520ba23a98f0c02a8a953b8e6f0a32935b", ""),
    (("--steps", "250", *MASS_Q),
     "73538205a5e8fa4f643d09d344163228f023196f710fd5fea8ba9b6ccd8a23e7", ""),
    (("--steps", "250", *MASS_Q, "--emit", "json"),
     "95ca31603d8b38bd5bedb34b32d254c6bd7ed2025c62f6ff37aa89fcfef9a64a", ""),
    (("--steps", "250", *MASS_Q, "--emit", "svg"),
     "86472d0a0a2f9cf40145f2a737f1ac8e2cad29dd231979bd9c04af29499fbbae", ""),
    (("--steps", "12", "--method", "pathsum"),
     "29cb272f0a1530e0fab891d660b771a76d214a5aa40208b00fdeb263aa15b0a9", ""),
    (("--steps", "12", "--method", "pathsum", "--emit", "json"),
     "b84ea0f91761638224ba1c1bd7595114907679b3cb5472e9089169ad8758c434", ""),
    (("--steps", "12", "--method", "pathsum", "--emit", "svg"),
     "c360a8111d4e1f5aeea8471d71c392d974ec491c2d602c5aa84c5e6428b13eff", ""),
    (("--steps", "10", "--method", "pathsum", "--theta", "0"),
     "aa92d0ac985d1e1fb302a735c705a093ea9f64ddca21f2195b33ae84a00e2429", ""),
    (("--steps", "12", "--method", "both", "--mass", "0.4", "--initial", "Q"),
     "572aeb87f5e9d9a9d635f118414db28d0ac31671913199988079bc5cec5e76c0",
     "max_discrepancy 7.7715611723760958e-16\n"),
    (("--steps", "12", "--method", "both", "--mass", "0.4", "--initial", "Q", "--emit", "json"),
     "6c3057daaaf28602e887d389944835eb0345c7707f404ae851e695c67b5f7339", ""),
    (("--steps", "12", "--method", "both", "--theta", "0", "--emit", "svg"),
     "7ca13d9c234e799923d4fe0000308219951ded234414a34f31548bd59f3b7d5f",
     "max_discrepancy 0\n"),
    (("--steps", "0", "--emit", "svg"),
     "5fd2fb0f33072abeb09c90a6067a192c48ca2cb04d800aded93757cc658ee406", ""),
    (("--steps", "0", "--method", "pathsum", "--emit", "svg"),
     "5fd2fb0f33072abeb09c90a6067a192c48ca2cb04d800aded93757cc658ee406", ""),
]


@pytest.mark.parametrize(
    "argv, digest, stderr", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_checkerboard_output_is_pinned(argv, digest, stderr):
    code, out, err = run_cli(["checkerboard", *argv])
    assert code == 0
    assert sha256(out) == digest
    assert err == stderr
