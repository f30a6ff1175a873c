"""Command-line front end.

Exit codes: 0 when every claim reaches its expected verdict class
(VERIFIED, or REFUTED-realization for the odd quaternion cases), 1 when
a claim is refuted, 3 when a budget ran out (INCONCLUSIVE), 2 on a
click error (bad usage, an --out file that cannot be opened) or an
internal error.  Reports go to stdout, diagnostics to stderr; nothing is
written to disk unless --out is given.
"""

from __future__ import annotations

import errno
import os

import click
from click.utils import LazyFile

from . import __version__, garside, sphere, theorems
from .certificates import Verdict, to_json
from .freegroup import BudgetExceededError, artin_disk_endo
from .selftest import run_cross_oracle
from .words import BraidWord, WordSyntaxError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INTERNAL = 2
EXIT_INCONCLUSIVE = 3

CLAIMS = tuple(theorems.PLANS)

_EXPECTED = {Verdict.VERIFIED, Verdict.REFUTED_REALIZATION}


def parse_word(text: str, n: int) -> BraidWord:
    """Parse the signed-integer word syntax, mapping errors to usage errors."""
    try:
        return BraidWord.from_text(text, n)
    except WordSyntaxError as exc:
        raise click.BadParameter(str(exc), param_hint="--word") from None


def _n_range(n, n_from, n_to, minimum):
    if n is not None:
        if n_from is not None or n_to is not None:
            raise click.UsageError("give either --n or --from/--to, not both")
        values = [n]
    else:
        if n_from is None or n_to is None:
            raise click.UsageError("give --n, or both --from and --to")
        if n_to < n_from:
            raise click.UsageError("--to must be >= --from")
        values = list(range(n_from, n_to + 1))
    for value in values:
        if value < minimum:
            raise click.UsageError(f"n = {value} is below the minimum {minimum} for this claim")
    return values


def _report(out, fmt, config, payload, text) -> None:
    """Write a command's report to --out, or to stdout without it.

    The machine document is {tool_version, config (with format), **payload};
    the text report is text(), built only on a text run.
    """
    if fmt == "machine":
        doc = to_json({"tool_version": __version__, "config": {**config, "format": fmt}, **payload})
    else:
        doc = text()
    if out is not None:
        out.write(doc)
        out.flush()
    else:
        click.echo(doc, nl=False)


def _check_out(ctx, param, out):
    """Refuse before the run an --out path that is a directory or lies in a missing one.

    The message is the one opening the file gives.  The file is opened only
    to write the report, so nothing is created or truncated before then.
    """
    if isinstance(out, LazyFile):
        if os.path.isdir(out.name):
            raise click.FileError(out.name, hint=os.strerror(errno.EISDIR))
        try:
            # with a trailing separator stat fails on a folder that is missing or a file
            os.stat(os.path.join(os.path.dirname(os.path.abspath(out.name)), ""))
        except OSError as exc:
            raise click.FileError(out.name, hint=exc.strerror) from None
    return out


def _report_options(command):
    """--format and --out, shared by every command."""
    command = click.option("--out", type=click.File("w"), default=None, callback=_check_out)(command)
    return click.option(
        "--format", "fmt", type=click.Choice(("text", "machine")), default="text"
    )(command)


_max_endo_letters = click.option(
    "--max-endo-letters",
    type=click.IntRange(min=1),
    default=theorems.DEFAULT_MAX_IMAGE_LETTERS,
    show_default=True,
)


def _certificate_text(cert) -> str:
    lines = [f"claim={cert.claim} n={cert.n} verdict={cert.verdict.value}"]
    for key in sorted(cert.flags):
        lines.append(f"  flag {key} = {cert.flags[key]}")
    for step in cert.steps:
        ax = ",".join(step.axioms) if step.axioms else "-"
        mark = "ok " if step.ok else "FAIL"
        lines.append(f"  [{step.id}] {mark} {step.method} (axioms: {ax})")
        lines.append(f"      {step.statement}")
    cited = ", ".join(cert.cited_axiom_ids()) or "none"
    lines.append(f"  axioms cited: {cited}")
    return "\n".join(lines) + "\n"


@click.group()
@click.version_option(__version__)
def main():
    """Certified computations in sphere braid groups."""


@main.command()
@click.option("--claim", type=click.Choice(CLAIMS), required=True)
@click.option("--n", type=int, default=None)
@click.option("--from", "n_from", type=int, default=None)
@click.option("--to", "n_to", type=int, default=None)
@click.option(
    "--max-cosets",
    type=click.IntRange(min=1),
    default=theorems.DEFAULT_MAX_COSETS,
    show_default=True,
)
@_max_endo_letters
@_report_options
@click.pass_context
def verify(ctx, claim, n, n_from, n_to, max_cosets, max_endo_letters, fmt, out):
    """Run a verification plan over one n or a range, emitting certificates."""
    plan = theorems.PLANS[claim]
    values = _n_range(n, n_from, n_to, plan.minimum)
    if plan.odd:
        values = [v for v in values if v % 2 == 1]
        if not values:
            raise click.UsageError(f"{claim} needs at least one odd n in the range")
    certs = [plan.run(m, max_cosets, max_endo_letters) for m in values]
    config = {
        "command": "verify",
        "claim": claim,
        "n_values": values,
        "max_cosets": max_cosets,
        "max_endo_letters": max_endo_letters,
    }
    _report(
        out,
        fmt,
        config,
        {"certificates": [c.as_dict() for c in certs]},
        lambda: "".join(_certificate_text(c) for c in certs),
    )

    verdicts = {c.verdict for c in certs}
    if any(v is Verdict.INCONCLUSIVE for v in verdicts):
        ctx.exit(EXIT_INCONCLUSIVE)
    if not verdicts <= _EXPECTED:
        ctx.exit(EXIT_REFUTED)
    ctx.exit(EXIT_OK)


@main.command("normal-form")
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", type=str, required=True)
@_report_options
def normal_form_cmd(n, word_text, fmt, out):
    """Garside left-canonical form of a word."""
    if n < 2:
        raise click.UsageError("normal-form needs n >= 2")
    w = parse_word(word_text, n)
    nf = garside.normal_form(w)
    _report(
        out,
        fmt,
        {"command": "normal-form", "n": n, "word": w.to_text()},
        {"normal_form": nf.as_dict()},
        lambda: f"(Delta^{nf.delta_power}, [{', '.join(str(list(f)) for f in nf.factors)}])\n",
    )


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--word", "word_text", type=str, required=True)
@click.option("--target", type=click.Choice(("disk", "sphere")), default="disk", show_default=True)
@_max_endo_letters
@_report_options
def act(n, word_text, target, max_endo_letters, fmt, out):
    """Images of the free-group generators under a word's action."""
    if n < 2 or (target == "sphere" and n < 3):
        raise click.UsageError("act needs n >= 2 (n >= 3 for the sphere action)")
    w = parse_word(word_text, n)
    endo = (
        artin_disk_endo(w, max_endo_letters)
        if target == "disk"
        else sphere.sphere_endo(w, max_endo_letters)
    )
    images = [img.to_text() for img in endo.images]
    _report(
        out,
        fmt,
        {"command": "act", "n": n, "word": w.to_text(), "target": target},
        {"rank": endo.rank, "images": images},
        lambda: "".join(f"x{j} -> {img or '(empty)'}\n" for j, img in enumerate(images, start=1)),
    )


@main.command()
@click.option("--from", "n_from", type=int, default=3, show_default=True)
@click.option("--to", "n_to", type=int, default=7, show_default=True)
@click.option("--pairs", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--max-len", type=click.IntRange(min=0), default=40, show_default=True)
@click.option("--seed", type=int, default=20240801, show_default=True)
@_report_options
@click.pass_context
def selftest(ctx, n_from, n_to, pairs, max_len, seed, fmt, out):
    """Cross-oracle agreement of the two exact engines on random pairs."""
    if n_from < 3 or n_to < n_from:
        raise click.UsageError("need 3 <= from <= to")
    report = run_cross_oracle(ns=range(n_from, n_to + 1), pairs=pairs, max_len=max_len, seed=seed)

    def text():
        lines = [
            f"n={n}: {report.pairs_per_n[n]} pairs, engines agree on all, "
            f"{report.equal_pairs_per_n[n]} equal pairs"
            for n in sorted(report.pairs_per_n)
        ]
        lines.append("sphere relations trivial: " + ("yes" if report.relations_ok else "NO"))
        lines.append("selftest " + ("PASS" if report.ok else "FAIL"))
        return "\n".join(lines) + "\n"

    config = {
        "command": "selftest",
        "from": n_from,
        "to": n_to,
        "pairs": pairs,
        "max_len": max_len,
        "seed": seed,
    }
    _report(out, fmt, config, {"report": report.as_dict()}, text)
    ctx.exit(EXIT_OK if report.ok else EXIT_REFUTED)


def run(argv=None) -> int:
    """Entry point of the command line and of `python -m spherebraid`; returns the exit code.

    The one place that turns an exception into an exit code: a budget
    that runs out in any command exits 3, a click error 2.
    """
    try:
        # outside standalone mode click returns ctx.exit codes instead of
        # raising SystemExit
        rv = main.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else EXIT_OK
    except BudgetExceededError as exc:
        click.echo(f"budget exhausted: {exc}", err=True)
        return EXIT_INCONCLUSIVE
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        click.echo(f"internal error: {exc}", err=True)
        return EXIT_INTERNAL
