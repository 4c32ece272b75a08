"""The `verify` argv grammar: `options.parse_args` against the two argparse
parsers it replaced, kept here as the oracle.  Neither converts a value:
each stays the string given, for the config merge to read."""

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tamagawa import cli, options
from tamagawa.models import COUNT_BUDGET


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 64, the config-error code, not argparse's 2,
    which would read as INCONCLUSIVE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        # argparse stores a --flag=-- value as []; options.parse_args rejects it
        # where it stands, as it does --flag --
        value = super()._get_values(action, arg_strings)
        if value == [] and action.nargs is None:
            self.error(f"argument {action.option_strings[0]}: expected one argument")
        return value


def build_parser():
    parser = _ArgumentParser(
        prog="tamagawa",
        description="Verify local-global invariants of algebraic tori "
                    "attached to quadratic and biquadratic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification identity")
    verify.add_argument("identity", nargs="?")
    verify.add_argument("--torus", action="append",
                        help="torus spec family:d or family:d1,d2 "
                             "(families: norm1, res, quot)")
    verify.add_argument("--pmax", help="good-prime bound (default 97)")
    verify.add_argument("--kmax", help="lifting level bound (default 3)")
    verify.add_argument("--tol", help="analytic tolerance (default 1e-6)")
    verify.add_argument("--budget", help=f"enumeration budget (default {COUNT_BUDGET})")
    verify.add_argument("--jobs",
                        help="accepted for compatibility; changes nothing (default 1)")
    verify.add_argument("--out", help="write the JSON report here (atomic)")
    verify.add_argument("--config", help="JSON config file; flags win on conflict")
    return parser


def _values(namespace):
    return sorted(vars(namespace).items())


def oracle(argv):
    """("help",), ("error",) or ("values", ...), as argparse parses argv."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            namespace = build_parser().parse_args(argv)
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)
    del namespace.command
    return "values", _values(namespace)


def outcome(argv):
    try:
        args = options.parse_args(argv)
    except options.UsageError:
        return ("error",)
    return ("help",) if args is None else ("values", _values(args))


FLAGS = ("--torus", "--pmax", "--kmax", "--tol", "--budget", "--jobs", "--out",
         "--config", "--help")
PREFIXES = ("--tor", "--t", "--bud", "--he", "--h", "--c", "--")
VALUES = ("-5", "-.5", "-1e-6", " 7 ", "1_0", "abc", "norm1:-1", "", "--", "-",
          "-h", "-x", "nan", "1e400")
TOKENS = st.one_of(
    st.sampled_from(("verify", "verif", "", *options.IDENTITY_CHOICES, "bogus",
                     *FLAGS, *PREFIXES, "-", "-h", "-x", *VALUES)),
    st.builds("{}={}".format, st.sampled_from(FLAGS + PREFIXES + ("-h",)),
              st.sampled_from(VALUES + ("h", "hh", "x"))),
    # argparse's corners: -h clusters, a space, a final newline, a non-ASCII
    # digit, an unknown long option
    st.sampled_from(("-hh", "-hx", "-h=h", "-h=", "-5\n", "-5\n\n", "-٣",
                     "-1.2.3", "-a b", "--zzz", "--zzz=1", "---")),
)


@settings(max_examples=400, deadline=None)
@given(st.builds(list.__add__, st.sampled_from([["verify"], []]),
                 st.lists(TOKENS, max_size=8)))
@example(["verify", "--torus", "x", "euler"])  # accepted
@example(["verify", "euler", "--tol", "-1e-6"])  # rejected: -1e-6 is an option
@example(["verify", "euler", "--out", "-x"])
@example(["verify", "euler", "euler"])
@example(["verify", "--torus", "x", "--", "euler"])
@example(["verify", "euler", "--torus", "x", "--"])  # a "--" apart from the identity
@example(["verify", "euler", "--config=--"])  # a "--" value is no value: an error
@example(["verify", "euler", "--out=--", "--out=x"])  # even where a later one wins
@example(["verify", "-h", "--t"])  # ambiguity is found before help
@example(["-x", "verify", "-h"])  # unknown options are reported last
def test_parse_args_agrees_with_argparse(argv):
    got = outcome(argv)
    assert got == oracle(argv)
    if got[0] == "values":
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if got == ("help",):
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().startswith("usage: tamagawa verify")
    else:
        assert (code, out.getvalue()) == (64, "")
        assert err.getvalue().startswith("usage: tamagawa verify")
        assert err.getvalue().count("error:") == 1


def test_every_flag_is_in_the_help():
    text = cli._help()
    assert text.startswith(cli._usage())
    for name in FLAGS:
        assert f"\n  {name}" in text or f", {name}" in text
    assert all(len(line) < 80 for line in text.splitlines())
