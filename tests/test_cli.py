import hashlib
import json
import random

import pytest
from click.testing import CliRunner

from spherebraid import cli, sphere, theorems
from spherebraid.cli import main, parse_word
from spherebraid.words import BraidWord, named_element, permutation


@pytest.fixture
def runner():
    return CliRunner()


def _seeded_words(n):
    """A seeded word set at n >= 2: random words, the half and full twists and their conjugates."""
    rng = random.Random(9000 + n)
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    words = [
        BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 12))))
        for _ in range(10)
    ]
    g = words[1]
    for name in ("half_twist", "full_twist"):
        words += [named_element(name, n), g * named_element(name, n) * g.inverse()]
    return words


def _word_outputs_digest(runner, args, n, fmt):
    """sha256 of a word command's stdout over `_seeded_words(n)`, concatenated in order."""
    out = []
    for w in _seeded_words(n):
        result = runner.invoke(main, [*args, "--n", str(n), "--word", w.to_text(), "--format", fmt])
        assert result.exit_code == 0, (args, n, w.to_text())
        assert result.stderr == "", (args, n, w.to_text())
        out.append(result.stdout)
    return hashlib.sha256("".join(out).encode()).hexdigest()


class TestParseWord:
    def test_basic(self):
        w = parse_word("1 2 -3", 4)
        assert w.letters == (1, 2, -3)

    def test_empty(self):
        assert parse_word("", 4).letters == ()

    def test_out_of_range(self):
        import click

        with pytest.raises(click.BadParameter, match="'4'"):
            parse_word("4", 4)


class TestNormalFormCommand:
    def test_half_twist_b3(self, runner):
        result = runner.invoke(main, ["normal-form", "--n", "3", "--word", "1 2 1"])
        assert result.exit_code == 0
        assert result.output == "(Delta^1, [])\n"

    def test_machine_format(self, runner):
        result = runner.invoke(
            main, ["normal-form", "--n", "3", "--word", "1 -2", "--format", "machine"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["normal_form"]["delta_power"] == -1
        assert doc["normal_form"]["factors"] == [[1, 3, 2], [2, 3, 1]]

    def test_bad_word_usage_error(self, runner):
        result = runner.invoke(main, ["normal-form", "--n", "4", "--word", "9"])
        assert result.exit_code == 2

    # sha256 of `normal-form` over `_seeded_words(n)`, per n and format.
    PINNED_DIGESTS = {
        (2, "machine"): "304ce918edfe69b4c3ac18d3d98a084d8008022ee33fc0ecb2f3b45225d042f0",
        (2, "text"): "7f1240e977b927f68213f17c564ded691f3c3c23c8532e5a3ebbcbccbd24326b",
        (3, "machine"): "3821ff7d6f89cdad7062d21d90d05a873eb118906b19b4affce10687d799726f",
        (3, "text"): "5786281a0edf6e300e09179aeffb6943f247a3e7b6198da68118eea536378155",
        (4, "machine"): "c803ed463761ea129f6961bf293d0bb212294ece37f87cb99d64ca79150c5066",
        (4, "text"): "57da511d2d9a5efe4a1e851b6e65d7e3c4c38a18eb61edef3364b8fbf272d94f",
        (5, "machine"): "8c1146a51bab74f8a401bb616acdfcd280486aec0a6055e87554978f88c8fef3",
        (5, "text"): "fd5fa73d7205c8f105cd33b327c34ec77a7e1637fc4135506b5990b5c2863b5e",
        (6, "machine"): "ef2074bf34bc9fb05dd0e57862851443cd3dd60fdd20a55108681257d0b8aa7c",
        (6, "text"): "2d1eb8ec3223a20344769bcfe83c7f4731486e45118415fd9b690defde917ac4",
        (7, "machine"): "6581ab826a4b689178aeaa9a6a5b6fef7abd275bcdaeaed79cfe536954a80c80",
        (7, "text"): "4322e1f24015bba8ab4aeae2b7d8ec4eb93e79bfbca4fc8b85f87f2230bf0e78",
    }

    def test_outputs_match_pinned_digests(self, runner):
        for (n, fmt), digest in self.PINNED_DIGESTS.items():
            assert _word_outputs_digest(runner, ["normal-form"], n, fmt) == digest, (n, fmt)


class TestVerifyCommand:
    def test_q8_single_n(self, runner):
        result = runner.invoke(main, ["verify", "--claim", "q8", "--n", "4"])
        assert result.exit_code == 0
        assert "verdict=VERIFIED" in result.output
        assert "in_commutator = True" in result.output

    def test_q8_range_trichotomy(self, runner):
        result = runner.invoke(
            main, ["verify", "--claim", "q8", "--from", "3", "--to", "12", "--format", "machine"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        certs = doc["certificates"]
        assert [c["n"] for c in certs] == list(range(3, 13))
        for c in certs:
            expected = "VERIFIED" if c["n"] % 2 == 0 else "REFUTED-realization"
            assert c["verdict"] == expected

    def test_dicyclic_range(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--claim", "dicyclic", "--from", "3", "--to", "5", "--format", "machine"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [c["flags"]["order"] for c in doc["certificates"]] == [12, 16, 20]

    def test_failed_square_rule_exits_1(self, runner, monkeypatch):
        monkeypatch.setattr(sphere, "square_rule", lambda v, max_image_letters=None: False)
        result = runner.invoke(main, ["verify", "--claim", "q8", "--n", "4"])
        assert result.exit_code == 1
        assert "verdict=REFUTED" in result.output
        assert "[s2.root] FAIL square-rule" in result.output

    def test_background_n2(self, runner):
        result = runner.invoke(main, ["verify", "--claim", "background", "--n", "2"])
        assert result.exit_code == 0

    def test_budget_exhaustion_exit_3(self, runner):
        result = runner.invoke(
            main, ["verify", "--claim", "background", "--n", "3", "--max-cosets", "5"]
        )
        assert result.exit_code == 3
        assert "INCONCLUSIVE" in result.output

    def test_torsion_fits_a_budget_its_exact_step_fits(self, runner):
        # the mod-center step reads the actions the exact step computed,
        # so it needs no longer image than they do
        args = ["verify", "--claim", "torsion", "--n", "24", "--max-endo-letters", "100"]
        result = runner.invoke(main, [*args, "--format", "machine"])
        assert result.exit_code == 0
        assert result.stderr == ""
        (cert,) = json.loads(result.output)["certificates"]
        assert cert["verdict"] == "VERIFIED"

    def test_n_and_range_conflict(self, runner):
        result = runner.invoke(
            main, ["verify", "--claim", "q8", "--n", "4", "--from", "3", "--to", "5"]
        )
        assert result.exit_code == 2

    def test_below_minimum_n(self, runner):
        for claim, plan in theorems.PLANS.items():
            below = str(plan.minimum - 1)
            result = runner.invoke(main, ["verify", "--claim", claim, "--n", below])
            assert result.exit_code == 2, claim
            assert f"n = {below} is below the minimum {plan.minimum}" in result.output, claim
        result = runner.invoke(main, ["verify", "--claim", "odd-obstruction", "--n", "4"])
        assert result.exit_code == 2
        assert "odd-obstruction needs at least one odd n in the range" in result.output

    def test_odd_obstruction_range_filters_even(self, runner):
        result = runner.invoke(
            main,
            [
                "verify",
                "--claim",
                "odd-obstruction",
                "--from",
                "3",
                "--to",
                "8",
                "--format",
                "machine",
            ],
        )
        doc = json.loads(result.output)
        assert [c["n"] for c in doc["certificates"]] == [3, 5, 7]

    def test_nonpositive_budget_rejected(self, runner):
        result = runner.invoke(
            main, ["verify", "--claim", "q8", "--n", "4", "--max-cosets", "0"]
        )
        assert result.exit_code == 2

    def test_machine_output_schema(self, runner):
        result = runner.invoke(
            main, ["verify", "--claim", "torsion", "--n", "4", "--format", "machine"]
        )
        doc = json.loads(result.output)
        assert set(doc) == {"tool_version", "config", "certificates"}
        cert = doc["certificates"][0]
        assert set(cert) == {"claim", "n", "verdict", "flags", "steps", "axioms"}
        for step in cert["steps"]:
            assert set(step) == {
                "id",
                "statement",
                "method",
                "ok",
                "depends_on",
                "axioms",
                "data",
            }

    def test_text_and_machine_verdicts_agree(self, runner):
        text = runner.invoke(main, ["verify", "--claim", "q8", "--from", "3", "--to", "6"])
        machine = runner.invoke(
            main, ["verify", "--claim", "q8", "--from", "3", "--to", "6", "--format", "machine"]
        )
        doc = json.loads(machine.output)
        for cert in doc["certificates"]:
            assert f"n={cert['n']} verdict={cert['verdict']}" in text.output
            cited = [a["id"] for a in cert["axioms"]]
            assert ("axioms cited: " + (", ".join(cited) or "none")) in text.output

    def test_determinism_byte_identical(self, runner):
        args = ["verify", "--claim", "q8", "--from", "3", "--to", "8", "--format", "machine"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    # sha256 of `verify --format machine` over each range.  Machine output
    # is byte-identical across engine changes; a change that alters it on
    # purpose updates these digests and says why.  The torsion digests were
    # re-pinned when alpha0's root step became an identical-words step, and
    # the q8 and dicyclic digests when one Dic_4m certifier replaced their
    # two proofs.  The q8, dicyclic and torsion digests were re-pinned again
    # when torsion_order came to write its word only in its `inv` step, and
    # the background digests when step b4 came to compare x sigma_i with
    # sigma_(n-i) x.
    PINNED_MACHINE_DIGESTS = {
        ("q8", 3, 12): "ef59365c522203740ec12285d41065c67c526a987acbe9a57b0abcaee87c2fa4",
        ("dicyclic", 3, 12): "b7c549ccf7eb17b49fae779c0cf03db5d64478d8bf327a5ab193689d16c5dc93",
        ("torsion", 3, 12): "912d19f9a6004019722bfebb10b469e873ac36429fda2bbc0de9392e0b611916",
        ("background", 3, 12): "319a1a1fcbd6bcccbab9115f2ac5dd893fa73b72b7a8a3dca0f0c455ffe0d619",
        ("odd-obstruction", 3, 13): "f248195ed7a5f1a0877f8f017c33ba7b5bbd26b6cd423dc75975ba2bfe8ad85d",
        # the certify and background n-grids of the benchmark
        ("q8", 13, 24): "0cbe9409133a4212049bff855af28fe5fa4a57b8dd50e414c04d88023f6b2ac5",
        ("dicyclic", 13, 24): "ebbd95e3a43b596e5febc10166e5979541f68b79a48609604a65d2f88b98063e",
        ("torsion", 13, 24): "cf5255942d50e4952bf5920014b7b0f882d7dac57db330936c4885930000f42e",
        ("background", 13, 22): "02c75ff2a476038e80a2ce8d06500f4c2f23867feb456a77729b21489405cef7",
        # torsion past the benchmark grid, where its root words are longest
        ("torsion", 25, 32): "39ae6e49b82b1e25663e1e5a10037d2b02e23c6a3618a7cfb394e15dc2f5c1b7",
        ("torsion", 48, 48): "c6b1a886adee9ebacb3eef68072d7eaae7f08fc880cb811c3694794c7f5bf141",
        ("torsion", 64, 64): "9d7c8de672969c65018e48f27177ca7f2ac086b7b46b5212e0af0e500b5cc7f9",
        # background past the benchmark grid, where b4's words are longest
        ("background", 23, 32): "731d5b85f0d1e1bbff8aa8289255c38c742426bc30f8f94ea54f3f932e7dfb12",
        ("background", 33, 48): "2d8733aaeeddeb24d91e251e389dc8c6383b098e2f70bfdfa2950e2285f43ef3",
        # the alpha-power words, alpha0^n among them, at the frontier
        ("q8", 128, 128): "af2d043022fb4f1045bed46df48f51e800173bf7db707fa96fb3dee6252ca163",
        ("dicyclic", 128, 128): "a3a8f8e4ba36f3e076af8cb9aa45e07318b89ba536ab10757f4b974f4153aef2",
        ("torsion", 128, 128): "803a20bb889385ee2f07d008c64d30085bd571d59425bfe042671258cb03cf4a",
    }

    def test_machine_output_matches_pinned_digests(self, runner):
        for (claim, lo, hi), digest in self.PINNED_MACHINE_DIGESTS.items():
            args = ["verify", "--claim", claim, "--from", str(lo), "--to", str(hi)]
            result = runner.invoke(main, [*args, "--format", "machine"])
            assert result.exit_code == 0, claim
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, claim

    # sha256 of `verify --format machine` for runs that hit a budget: each
    # exits 3, and its budget-abort certificates sit among complete ones
    # (q8) or stand alone (torsion, background).  A budget-abort step has
    # method "budget"; it had "arithmetic" when these were first pinned.
    PINNED_BUDGET_DIGESTS = {
        ("q8", "--from", "4", "--to", "12", "--max-endo-letters", "25"):
            "f164ac6624f6f4df6db5f1aec71b73d5badfc3f6ecbec9f054188c81e47e7345",
        # a coset cap hit in background at n = 3 and 2, the only runs that
        # enumerate cosets
        ("background", "--n", "3", "--max-cosets", "5"):
            "cbf4fb71c7750445b443c441b20cc705f7d22db4d206bfa6630195190e93ead1",
        ("background", "--n", "2", "--max-cosets", "1"):
            "19d59216f16a701d21790fe6a3e5870673aa14e3cc99656614a0d5fb124c03af",
        # an image budget hit on words long enough for the chunked Artin action
        ("q8", "--n", "24", "--max-endo-letters", "60"):
            "b41659ade8c2f14d8a523f59113b0de7301783cd6cef4e89eef503b603def5f1",
        ("background", "--n", "22", "--max-endo-letters", "40"):
            "8df97cea368e679875100f6aead5bc44ddeb1752716bb01f9f3db158894a9891",
        # an image budget hit on the alpha-power words
        ("torsion", "--n", "24", "--max-endo-letters", "45"):
            "dcf5337d2b60f76818678ba08b4a1c885c84ac09934346547b9ecdd43866d624",
        ("dicyclic", "--n", "24", "--max-endo-letters", "45"):
            "817e91aee3ef39bd24699269daff5b3f3f60128362b7dbfe504962b1c2114d89",
    }

    def test_budget_output_matches_pinned_digests(self, runner):
        for (claim, *args), digest in self.PINNED_BUDGET_DIGESTS.items():
            result = runner.invoke(
                main, ["verify", "--claim", claim, *args, "--format", "machine"]
            )
            assert result.exit_code == 3, claim
            assert result.stderr == "", claim
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, claim

    # runs that hit an image budget until powers of a short word were
    # composed a period at a time; each now completes, as the default
    # budget does
    COMPLETING_BUDGET_RUNS = (
        ("torsion", "--n", "24", "--max-endo-letters", "50"),
        ("dicyclic", "--n", "24", "--max-endo-letters", "60"),
        ("q8", "--from", "4", "--to", "12", "--max-endo-letters", "40"),
    )

    # the largest budget at which q8 and dicyclic run out at n = 40, where the
    # halves of the bipolar twist are chunks of their own, with the sha256 of
    # `verify --format machine` at that budget (exit 3) and at the next (exit 0)
    PINNED_LARGEST_ABORTS = {
        ("q8", 40, 80): (
            "c3b119ce110b16e99eca5df77e4d7a2f111bcf692ab335ef7a5a55b1cc732fd2",
            "db7f48d58eef7d4afbd5331e0279974a95135f82998b356d43b3d24ed1a772f1",
        ),
        ("dicyclic", 40, 80): (
            "c13f73290b669992975d9ef786959bb0419a85866e16c3fb74c686ec70c0a1c8",
            "4fac65a8fd68913d821ead428aa6f4d9b32889314e72c8f0121df2b81c6ce632",
        ),
    }

    def test_largest_aborting_budget_matches_pinned_digests(self, runner):
        for (claim, n, budget), digests in self.PINNED_LARGEST_ABORTS.items():
            for code, limit, digest in zip((3, 0), (budget, budget + 1), digests):
                args = ["verify", "--claim", claim, "--n", str(n), "--max-endo-letters", str(limit)]
                result = runner.invoke(main, [*args, "--format", "machine"])
                assert result.exit_code == code, (claim, limit)
                assert result.stderr == "", (claim, limit)
                assert hashlib.sha256(result.output.encode()).hexdigest() == digest, (claim, limit)

    def test_budget_runs_that_complete_match_the_default_budget(self, runner):
        for claim, *args in self.COMPLETING_BUDGET_RUNS:
            result = runner.invoke(main, ["verify", "--claim", claim, *args, "--format", "machine"])
            default = runner.invoke(main, ["verify", "--claim", claim, *args[:-2], "--format", "machine"])
            assert result.exit_code == default.exit_code == 0, claim
            assert result.stderr == "", claim
            certificates = json.loads(result.output)["certificates"]
            assert certificates == json.loads(default.output)["certificates"], claim

    def test_a_budget_never_gives_another_verdict(self, runner):
        # a run out of budget exits 3; any other run prints exactly the
        # default-budget certificates, with the same exit code
        for claim in ("q8", "dicyclic", "torsion", "background"):
            for n in range(3, 17):
                args = ["verify", "--claim", claim, "--n", str(n), "--format", "machine"]
                default = runner.invoke(main, args)
                certificates = json.loads(default.output)["certificates"]
                for budget in range(10, 131, 10):
                    result = runner.invoke(main, [*args, "--max-endo-letters", str(budget)])
                    if result.exit_code != 3:
                        assert result.exit_code == default.exit_code, (claim, n, budget)
                        assert json.loads(result.output)["certificates"] == certificates, (claim, n, budget)

    # sha256 of `verify --format text`, the one report that lists each
    # certificate's cited axioms; the last two runs hit a budget and exit 3.
    # Background's complete run was re-pinned with its machine digests.
    PINNED_TEXT_DIGESTS = {
        ("q8", "--from", "3", "--to", "12"):
            (0, "7cc87c45624ca8181a13d4cc3c47e0d0f85e7276da4683b7693894af9f3ad4ca"),
        ("dicyclic", "--from", "3", "--to", "12"):
            (0, "618275ea2d90969558acb023d89f00bfbb7c8a70816b4fc32d2a3f39c57d1a1d"),
        ("torsion", "--from", "3", "--to", "12"):
            (0, "570fb58ecb146e92937e3762af12ec012757295b7877f84ba29a7ae15fe0e414"),
        ("background", "--from", "2", "--to", "12"):
            (0, "f7e34599b1160b96e8d2eac547d032d775e6601f36e62468cdf72b0de202b76d"),
        ("odd-obstruction", "--from", "3", "--to", "13"):
            (0, "cb4b009dfcc2404b3fe835caffb5512735109c4370c37b58be729cf28a0f82b2"),
        ("torsion", "--n", "24", "--max-endo-letters", "45"):
            (3, "f8c6a60be2b99d9c1186b7d08f329deb3a5b9b18ce7c9de7e74e48682eae0a6a"),
        ("background", "--n", "3", "--max-cosets", "5"):
            (3, "ce8ec66f049885b84fd37df197006d27483b5ed82905ed88bedd91d7d5c6bc2d"),
    }

    def test_text_output_matches_pinned_digests(self, runner):
        for (claim, *args), (code, digest) in self.PINNED_TEXT_DIGESTS.items():
            result = runner.invoke(main, ["verify", "--claim", claim, *args, "--format", "text"])
            assert result.exit_code == code, claim
            assert result.stderr == "", claim
            assert hashlib.sha256(result.output.encode()).hexdigest() == digest, claim

    def test_odd_q8_enumerates_no_cosets(self, runner):
        # the odd branch certifies non-existence without coset enumeration,
        # so even a cap of one coset completes
        args = ["verify", "--claim", "q8", "--n", "5", "--max-cosets", "1", "--format", "machine"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stderr == ""
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "72691b69748517b171b2527774d60f7a2349e5c3198f3cbe1ae0639b139ef301"
        )

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--claim", "q8", "--n", "4", "--format", "machine", "--out", str(target)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        assert json.loads(target.read_text())["certificates"][0]["verdict"] == "VERIFIED"


class TestActCommand:
    def test_disk_action(self, runner):
        result = runner.invoke(main, ["act", "--n", "2", "--word", "1"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["x1 -> 1 2 -1", "x2 -> 1"]

    def test_sphere_action(self, runner):
        result = runner.invoke(
            main, ["act", "--n", "3", "--word", "1 2 2 1", "--target", "sphere"]
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == ["x1 -> 1", "x2 -> 1 2 -1"]

    # sha256 of `act --target disk` over `_seeded_words(n)`, per n and format.
    PINNED_DISK_DIGESTS = {
        (2, "machine"): "3f20959864bc6deeb9f84e431db5c5abb2e180c751be7b1239c722989ed5f7a3",
        (2, "text"): "40d3488a14c10214811c540e96c0926ba02b4f30b258bca00a1270abf06208ad",
        (3, "machine"): "d3aea21bc5cb693bced39cb387ce542eb0b0e82de0b59af0d01ae7fcd21264fd",
        (3, "text"): "b46fadd7397fb8653f7c2e7f04e235144fc9b2a21c0fb6fb4c9c0b1be4918edf",
        (4, "machine"): "b52ca52ec2f60641930997ef3f092089f6edf47d708ef3ebd0b058746c6b72b4",
        (4, "text"): "9bd67cf37272178470d6549ffe4f5313c887c038bbda1bec47a2b4d1f225d4ee",
        (5, "machine"): "280141a1922887800d054de9634f502b76629162bec57bff884ab800c1cab4d3",
        (5, "text"): "5b999932bf90326199bfa2149f152b323070aa99ba19c83036d9ac5c6bf85fe7",
        (6, "machine"): "29dd43ce3c66ed252a3d7505bf84c825c9e078c56d8bdbd2a9e82a08edc9af41",
        (6, "text"): "18b60f696c41670e90672a99bf4e5c9a9a5e4f65668232b314fc03eba3a759e1",
        (7, "machine"): "25762701273815d307d445c55e43acfad6dac242612db2976cef2e3d7de9d1b5",
        (7, "text"): "d25e6dfec979609dc07964cdac8f6c5589410733ad2d1912bea74f0cd8290fbd",
    }

    def test_disk_action_matches_pinned_digests(self, runner):
        for (n, fmt), digest in self.PINNED_DISK_DIGESTS.items():
            args = ["act", "--target", "disk"]
            assert _word_outputs_digest(runner, args, n, fmt) == digest, (n, fmt)

    @staticmethod
    def _conjugation_words(n):
        """The conjugations x sigma_i x^-1 and their mirror x^-1 sigma_i x, x the
        half twist, for i = 1, n // 2 and n - 1."""
        x = named_element("half_twist", n)
        for i in (1, n // 2, n - 1):
            s = BraidWord(n, (i,))
            yield x * s * x.inverse()
            yield x.inverse() * s * x

    # the largest budget at which each of `_conjugation_words(n)` runs out, in order
    CONJUGATION_ABORT_BUDGETS = {
        9: (16, 18, 16, 16, 16, 16),
        16: (30, 32, 30, 30, 30, 30),
        24: (46, 48, 46, 46, 46, 46),
    }

    # sha256 of `act --target disk` over `_conjugation_words(n)`, each at the
    # default budget and at its largest aborting one: exit code, stdout and
    # stderr of every run, concatenated in order.
    PINNED_CONJUGATION_DIGESTS = {
        (9, "machine"): "97a09a6a19b810e84f3d7e8f17035a64cc3de7d6af7f3ae43e7dd431bbd34db4",
        (9, "text"): "502c010090dd5ef3b03fef820fbf22d3d8e419bec6cbd6b131d5960a427147e2",
        (16, "machine"): "40963d98c419be649074c1fb22101f5ef87f5629d1e54640bbcbeb9839046554",
        (16, "text"): "2ec0b478285310e8b3badf65e2b55c5245714da66fc6f5fbd326016ee1d52d07",
        (24, "machine"): "e4098774b72edad5b6caec886aae67a11c9c6a48598690682fc3bb6d3606d073",
        (24, "text"): "0a6adf272d1cf94acb150944d90fe5194807d605bf0a8ae419fc0390ba2e773b",
    }

    def test_conjugation_words_match_pinned_digests(self, capsys):
        for (n, fmt), digest in self.PINNED_CONJUGATION_DIGESTS.items():
            out = []
            for w, budget in zip(self._conjugation_words(n), self.CONJUGATION_ABORT_BUDGETS[n]):
                args = ["act", "--target", "disk", "--n", str(n), "--word", w.to_text(), "--format", fmt]
                for limit in ([], ["--max-endo-letters", str(budget)]):
                    code = cli.run([*args, *limit])
                    captured = capsys.readouterr()
                    out.append(f"{code}\n{captured.out}{captured.err}")
                assert out[-1].startswith("3\n"), (n, w.to_text())
                assert cli.run([*args, "--max-endo-letters", str(budget + 1)]) == 0, (n, w.to_text())
                capsys.readouterr()
            assert hashlib.sha256("".join(out).encode()).hexdigest() == digest, (n, fmt)

    def test_budget_exit_3_through_run(self, capsys):
        word = " ".join(["1 2 3 4 5"] * 40)
        assert cli.run(["act", "--n", "6", "--word", word, "--max-endo-letters", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exhausted: endomorphism image exceeded 10 letters; "
            "raise the budget to continue\n"
        )

    def test_cancelled_pairs_build_no_image(self, capsys):
        # the letters cancel in pairs before they act, so no image is built
        # and a budget of 3 lets the identity through
        args = ["act", "--n", "5", "--word", "1 -1 2 -2 1 2 -2 -1", "--max-endo-letters", "3"]
        assert cli.run(args) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"x{j} -> {j}" for j in range(1, 6)]
        assert captured.err == ""

    @staticmethod
    def _sphere_words(n):
        """A seeded word set at n: random words, named elements and their conjugates."""
        rng = random.Random(8000 + n)
        alphabet = [k for k in range(-(n - 1), n) if k != 0]
        words = [
            BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10))))
            for _ in range(10)
        ]
        names = ("surface_relator", "full_twist", "half_twist", "alpha0", "alpha1")
        words += [named_element(name, n) for name in names]
        g = words[1]
        for name in ("surface_relator", "full_twist"):
            words.append(g * named_element(name, n) * g.inverse())
        return words

    # sha256 of `act --target sphere` over `_sphere_words(n)`, the outputs
    # concatenated in order, per n and format.
    PINNED_SPHERE_DIGESTS = {
        (3, "machine"): "b95f728615ece1d82a5f05776f22441f8a536fc68f8e15c299cebcef4fb342a0",
        (3, "text"): "b9c684406e247d44530d564d5483ad8fb5a461b7c902d48209ad08f7e11a9fd4",
        (4, "machine"): "72c1206f84bb7d951256662f5552576c7d05a85bc1d95e7a19d5278d019df71c",
        (4, "text"): "fb8a4d097550493edf10b70c5ffba402a15c6c225c22a5ebc3bae7311af7a431",
        (5, "machine"): "978c5ce0e79d2f9281c9fff5af3c40dbfab66565f2d64ce74e8ceb6d55a839c7",
        (5, "text"): "e1b033f0a19a0eba4d863d7c4a92b5b60bf82a7c8922e5517c94bbe0c2b04b60",
        (6, "machine"): "a91c0084c92413f77194e0f0778daef357fac8c4469aa766f040d17d55346e00",
        (6, "text"): "c180cf46bd5f72d2e5e75741c13d6c4bc4ef7c3828c6327d124418264cddcfe0",
        (7, "machine"): "df1429bf454d6d866ed76a8b58aa79d88d1dbf132490985198d49ab66d95922a",
        (7, "text"): "d62226d620116bc093982daa55425a812ddc6ede1c58a77dcee33f6c617d1691",
        (8, "machine"): "4c59e96cc85d9acfaed70c5f122d7a3e147b16c31715cf7aa819cb55362a7aed",
        (8, "text"): "9f66bc76b22f47548c7901d5e47566af5e048f5c7acb06be832a9996b1ba5873",
    }

    def test_sphere_action_matches_pinned_digests(self, runner):
        for (n, fmt), digest in self.PINNED_SPHERE_DIGESTS.items():
            words = self._sphere_words(n)
            # the set covers images of x_j for j < n that are conjugates of
            # (x_1..x_{n-1})^-1 rather than of a generator
            assert any(permutation(w).images[j - 1] == n for w in words for j in range(1, n))
            out = []
            for w in words:
                args = ["act", "--n", str(n), "--word", w.to_text(), "--target", "sphere"]
                result = runner.invoke(main, [*args, "--format", fmt])
                assert result.exit_code == 0, (n, w.to_text())
                out.append(result.output)
            assert hashlib.sha256("".join(out).encode()).hexdigest() == digest, (n, fmt)
        assert {n for n, _ in self.PINNED_SPHERE_DIGESTS} == set(range(3, 9))

    def test_sphere_budget_exit_3(self, capsys):
        # the disk images fit in 11 letters; a sphere image has 12
        args = ["act", "--n", "5", "--word", "-3 -3 -4 -2 -3 -2 2", "--target", "sphere"]
        assert cli.run([*args, "--max-endo-letters", "11"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "budget exhausted: endomorphism image exceeded 11 letters; raise the budget to continue\n"
        assert cli.run([*args, "--max-endo-letters", "12"]) == 0


class TestSelftestCommand:
    def test_small_run(self, runner):
        result = runner.invoke(
            main, ["selftest", "--from", "3", "--to", "4", "--pairs", "40", "--max-len", "14"]
        )
        assert result.exit_code == 0
        assert "selftest PASS" in result.output

    def test_default_machine_run_matches_pinned_digest(self, runner):
        # the relation loop sends each sphere relator through both
        # acts_trivially and sphere_endo
        result = runner.invoke(main, ["selftest", "--format", "machine"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == (
            "f1ea0781a04b94f5e262e39da8061471d3890b276c7086608b6edda8f4732f98"
        )


    def test_engine_disagreement_fails(self, runner, monkeypatch):
        # an Artin engine that answers the opposite of garside on every pair
        from spherebraid import garside

        monkeypatch.setattr("spherebraid.freegroup.eq_Bn", lambda w, v, budget=None: not garside.equal_Bn(w, v))
        result = runner.invoke(main, ["selftest", "--pairs", "5", "--format", "machine"])
        assert result.exit_code == 1
        report = json.loads(result.output)["report"]
        assert len(report["mismatches"]) == 5 * len(report["pairs_per_n"]) and report["ok"] is False
        result = runner.invoke(main, ["selftest", "--pairs", "5"])
        assert result.exit_code == 1
        assert "selftest FAIL" in result.output

    def test_a_relator_that_fails_on_the_sphere_fails(self, monkeypatch):
        from spherebraid import selftest
        from spherebraid.freegroup import artin_disk_endo

        surface = named_element("surface_relator", 5)
        honest = selftest.acts_trivially
        monkeypatch.setattr(selftest, "acts_trivially", lambda w, budget: w != surface and honest(w, budget))
        assert not selftest.run_cross_oracle(ns=()).relations_ok
        # a relator of B_n itself must act as the identity, not only up to Delta^2
        monkeypatch.setattr(selftest, "acts_trivially", honest)
        monkeypatch.setattr(selftest, "sphere_endo", lambda w, budget: artin_disk_endo(BraidWord(w.strand_count, (1,))))
        assert not selftest.run_cross_oracle(ns=()).relations_ok

    # a pair of 120-letter words at n = 3 whose disk action outgrows the
    # default image budget
    BUDGET_ARGS = ["selftest", "--from", "3", "--to", "3", "--pairs", "5", "--max-len", "120"]
    BUDGET_MESSAGE = (
        "budget exhausted: endomorphism image exceeded 1000000 letters; "
        "raise the budget to continue\n"
    )

    def test_budget_exit_3_through_run(self, capsys):
        assert cli.run(self.BUDGET_ARGS) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == self.BUDGET_MESSAGE


class TestMachineDocuments:
    """Every document shape `--format machine` emits is json.dumps(doc, sort_keys=True, indent=2) + a newline."""

    RUNS = {
        **{f"verify-{claim}": ["verify", "--claim", claim, "--from", "4", "--to", "6"] for claim in cli.CLAIMS},
        "normal-form": ["normal-form", "--n", "5", "--word", "1 -2 3 4 -1 -1"],
        "act-disk": ["act", "--n", "5", "--word", "1 2 -3 4 2", "--target", "disk"],
        "act-sphere": ["act", "--n", "5", "--word", "1 2 -3 4 2", "--target", "sphere"],
        "selftest": ["selftest", "--pairs", "5"],
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_stdout_is_the_json_dumps_of_its_parse(self, runner, run):
        result = runner.invoke(main, [*self.RUNS[run], "--format", "machine"])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.stdout)
        assert result.stdout == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestOptionRanges:
    """Numeric options are checked where they are declared: budgets >= 1, counts >= 0."""

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--claim", "q8", "--n", "4", "--max-endo-letters", "0"],
            ["act", "--n", "4", "--word", "", "--max-endo-letters", "0"],
            ["act", "--n", "4", "--word", "1 2", "--max-endo-letters", "-5"],
            ["selftest", "--pairs", "-1"],
            ["selftest", "--max-len", "-1"],
        ],
        ids=["verify-letters-0", "act-empty-word-0", "act-letters-neg", "pairs-neg", "max-len-neg"],
    )
    def test_out_of_range_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Invalid value for '--" in result.stderr

    def test_run_reports_the_range(self, capsys):
        assert cli.run(["selftest", "--pairs", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: Invalid value for '--pairs': -1 is not in the range x>=0.\n"
        )

    def test_zero_counts_are_allowed(self, runner):
        args = ["selftest", "--from", "3", "--to", "3", "--pairs", "0", "--max-len", "0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.startswith("n=3: 0 pairs")


class TestOutFile:
    """--out FILE gets exactly the bytes that stdout gets without it."""

    RUNS = {
        "verify": ["verify", "--claim", "dicyclic", "--from", "3", "--to", "5"],
        "verify-budget": ["verify", "--claim", "background", "--n", "3", "--max-cosets", "5"],
        "normal-form": ["normal-form", "--n", "5", "--word", "1 -2 3 4 -1 -1"],
        "act": ["act", "--n", "4", "--word", "1 2 -3 2", "--target", "sphere"],
        "selftest": ["selftest", "--from", "3", "--to", "4", "--pairs", "20", "--max-len", "10"],
    }

    @pytest.mark.parametrize("fmt", ["machine", "text"])
    @pytest.mark.parametrize("run", list(RUNS))
    def test_out_file_gets_the_stdout_bytes(self, runner, tmp_path, run, fmt):
        args = [*self.RUNS[run], "--format", fmt]
        expected = runner.invoke(main, args)
        target = tmp_path / "report"
        result = runner.invoke(main, [*args, "--out", str(target)])
        assert result.exit_code == expected.exit_code == (3 if run == "verify-budget" else 0)
        assert result.stdout_bytes == b""
        assert result.stderr_bytes == expected.stderr_bytes == b""
        assert expected.stdout_bytes
        assert target.read_bytes() == expected.stdout_bytes

    @pytest.fixture
    def plans_run(self, monkeypatch):
        """The n of every q8 plan run."""
        runs = []
        real = theorems.verify_q8

        def verify_q8(n, *budgets):
            runs.append(n)
            return real(n, *budgets)

        monkeypatch.setattr(theorems, "verify_q8", verify_q8)
        return runs

    def test_unopenable_out_file_exits_2_naming_the_file(self, tmp_path, capsys, plans_run):
        # the path is checked before the run, with the message opening it gives
        unopenable = [
            (str(tmp_path / "missing" / "x.json"), "No such file or directory"),
            (str(tmp_path), "Is a directory"),
        ]
        for target, reason in unopenable:
            assert cli.run(["verify", "--claim", "q8", "--n", "4", "--out", target]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: Could not open file {target!r}: {reason}\n"
        assert plans_run == []

    def test_usage_error_leaves_an_existing_out_file_untouched(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("earlier report\n")
        args = ["verify", "--claim", "q8", "--n", "4", "--from", "3", "--to", "5"]
        assert cli.run([*args, "--out", str(target)]) == 2
        assert capsys.readouterr().err == "error: give either --n or --from/--to, not both\n"
        assert target.read_text() == "earlier report\n"


class TestConsoleEntryPoint:
    """Exit codes and output through `python -m spherebraid`, a real process."""

    @staticmethod
    def _run(*args):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import spherebraid

        # the child imports the same spherebraid as this process, installed or not
        src = str(Path(spherebraid.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "spherebraid", *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_verified_claim_exits_0(self):
        assert self._run("verify", "--claim", "background", "--n", "2").returncode == 0

    def test_machine_report_matches_run(self, capsys):
        args = ["verify", "--claim", "q8", "--n", "4", "--format", "machine"]
        code = cli.run(args)
        captured = capsys.readouterr()
        proc = self._run(*args)
        assert code == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)

    def test_budget_exhaustion_exits_3(self):
        args = ("verify", "--claim", "background", "--n", "3", "--max-cosets", "5")
        assert self._run(*args).returncode == 3

    def test_letter_budget_exits_3(self):
        args = ("verify", "--claim", "torsion", "--n", "24", "--max-endo-letters", "45")
        assert self._run(*args).returncode == 3

    def test_usage_error_exits_2(self):
        assert self._run("verify", "--claim", "q8", "--n", "1").returncode == 2
