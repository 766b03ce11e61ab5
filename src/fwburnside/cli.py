"""Command-line interface.

Verbs: group, lattice, marks, idempotents, mconst, op, and the fw family
(apply, check, survey). Identical invocations print identical bytes; all
rationals appear as "p/q" strings and elements as sparse [label, rational]
pair lists over the canonical class labels ("<order>:<index>").

Each verb is declared once, in `_VERBS`, with its handler and the output
formats it writes, the first being the default: lattice json|table, marks
json|csv|table, fw survey csv|json|table, every other verb json. Any other
--format is a usage error, raised while parsing, before any group is built.
A request builds the parser of the one verb it names; --help and a missing
or unknown verb build them all.

A handler finishes all the algebra and returns its output as an iterable of
text pieces, which main writes one at a time to stdout or the --out file:
JSON in batches of encoder chunks, tables and CSV one line per row. So a
request that fails writes nothing, and a large table is never held as one
string of cells.

Exit codes: 0 success, 1 usage or parse error, 2 precondition failure
(order cap or subgroup budget exceeded, non-normal kernel, missing class),
3 broken internal invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice
from operator import itemgetter

from .burnside import (
    OPERATIONS,
    element_from_json,
    element_to_json,
    format_rational,
    idempotent,
    operation,
    table_of_marks,
)
from .errors import (
    AlgebraError,
    CapExceededError,
    InvalidParameterError,
    PreconditionError,
    SpecParseError,
)
from .fw import decide_commutes, fw_apply
from .groups import DEFAULT_ORDER_CAP, ascii_digits, construct_group, cyclic_group
from .lattice import DEFAULT_SUBGROUP_BUDGET, m_constant, subgroup_lattice
from .survey import SURVEY_COLUMNS, SurveyConfig, full_catalog, survey_rows, write_survey_csv


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def resolve_selector(G, text):
    """Resolve center | frattini | maxcyc | order=<k>:<i> to a subgroup."""
    lat = subgroup_lattice(G)
    if text == "center":
        return G.center()
    if text == "frattini":
        return lat.frattini()
    if text == "maxcyc":
        return G.max_cyclic_intersection()
    k, colon, i = text.removeprefix("order=").partition(":")
    if text.startswith("order=") and colon and ascii_digits(k) and ascii_digits(i):
        return lat.class_rep(lat.class_by_label(f"{k}:{i}"))
    raise SpecParseError(f"unknown subgroup selector {text!r}")


def _read_user_file(path, what):
    """The text of a file named on the command line; a file that cannot be
    opened or is not UTF-8 is a parse error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_element_data(text):
    # ValueError covers JSONDecodeError and numbers too long for int();
    # RecursionError is nesting too deep for the decoder
    s, where = text.strip(), ""
    if not s.startswith("["):
        s, where = _read_user_file(text, "element file"), f" in {text!r}"
    try:
        return json.loads(s)
    except (ValueError, RecursionError) as exc:
        raise SpecParseError(f"bad element JSON{where}: {exc}") from exc


# Encoder chunks joined per piece: writing chunk by chunk is about five times
# slower than encoding in one call, and joining them all holds the whole text.
_JSON_BATCH = 4096


def _dump(obj):
    """obj as JSON indented by 2, then a newline, in pieces of _JSON_BATCH
    encoder chunks; together the text one indent=2 encode call gives."""
    chunks = json.JSONEncoder(indent=2).iterencode(obj)
    while piece := "".join(islice(chunks, _JSON_BATCH)):
        yield piece
    yield "\n"


def _table_line(cells, widths):
    return "  ".join(map(str.ljust, cells, widths)).rstrip() + "\n"


# Rows per batch of the width pass: one max call per column and batch, not
# per cell, while only a batch of rows and its transpose are held.
_WIDTH_BATCH = 64


def _render_table(headers, rows):
    """The lines of a text table: each column left-justified to its widest
    cell, two spaces apart, trailing blanks stripped. rows() returns a fresh
    iterable of the rows, each cell str(value). A first pass takes the
    widths a batch of rows at a time, column by column, without keeping the
    cells; then one line is yielded per row."""
    widths = list(map(len, headers))
    batches = iter(rows())
    while batch := list(islice(batches, _WIDTH_BATCH)):
        widths = [max(w, *map(len, map(str, col))) for w, col in zip(widths, zip(*batch))]
    yield _table_line(headers, widths)
    for row in rows():
        yield _table_line(map(str, row), widths)


class _Lines(list):
    """The strings written to it, one per write, for writers that take a file."""

    write = list.append


def _lattice(args):
    """The lattice of the group args.spec names, built under the subgroup
    budget; later subgroup_lattice calls read it from the cache."""
    G = construct_group(args.spec, cap=args.cap)
    return subgroup_lattice(G, max_subgroups=args.max_subgroups)


def cmd_group(args):
    G = construct_group(args.spec, cap=args.cap)
    orders = G.element_orders()
    return _dump(
        {
            "spec": args.spec.strip(),
            "label": G.label,
            "order": G.n,
            "abelian": G.is_abelian(),
            "exponent": G.exponent(),
            "center_order": G.center().order,
            "element_order_counts": {str(k): orders.count(k) for k in sorted(set(orders))},
        }
    )


def cmd_lattice(args):
    lat = _lattice(args)
    G = lat.group
    classes = []
    for c in range(lat.n_classes()):
        rep = lat.class_rep(c)
        classes.append(
            {
                "label": lat.class_label(c),
                "order": rep.order,
                "class_size": len(lat.classes[c]),
                "normalizer_index": G.n // lat.normalizer(rep).order,
            }
        )
    if args.format == "table":
        headers = ("label", "order", "class_size", "normalizer_index")
        return _render_table(headers, lambda: map(itemgetter(*headers), classes))
    return _dump(
        {
            "group": G.label,
            "order": G.n,
            "subgroup_count": len(lat.subgroups),
            "class_count": lat.n_classes(),
            "classes": classes,
            "frattini": lat.class_label_of(lat.frattini()),
            "max_cyclic_intersection": lat.class_label_of(G.max_cyclic_intersection()),
        }
    )


def cmd_marks(args):
    lat = _lattice(args)
    G = lat.group
    tom = table_of_marks(lat)
    labels = [lat.class_label(c) for c in range(lat.n_classes())]
    if args.format == "table":
        return _render_table(
            ("class", *labels), lambda: ((label, *row) for label, row in zip(labels, tom))
        )
    if args.format == "csv":
        return chain(
            ("class," + ",".join(labels) + "\n",),
            (f"{label},{','.join(map(str, row))}\n" for label, row in zip(labels, tom)),
        )
    # tuples encode as JSON arrays, so the table is written without a copy
    return _dump({"group": G.label, "classes": labels, "table": tom})


def cmd_idempotents(args):
    lat = _lattice(args)
    G = lat.group
    items = [
        {
            "class": lat.class_label(c),
            "coefficients": element_to_json(idempotent(lat, c)),
        }
        for c in range(lat.n_classes())
    ]
    return _dump({"group": G.label, "idempotents": items})


def cmd_mconst(args):
    lat = _lattice(args)
    G = lat.group
    L = resolve_selector(G, args.L)
    K = resolve_selector(G, args.K)
    value = m_constant(lat, L, K)
    return _dump(
        {
            "group": G.label,
            "L": lat.class_label_of(L),
            "K": lat.class_label_of(K),
            "m": format_rational(value),
        }
    )


def cmd_op(args):
    G = _lattice(args).group
    sub = resolve_selector(G, args.selector)
    data = _load_element_data(args.element)
    fn, f, src, _ = operation(args.operation, sub)
    result = fn(element_from_json(src, data), f)
    return _dump(
        {
            "group": result.group.label,
            "operation": args.operation,
            "element": element_to_json(result),
        }
    )


def cmd_fw_apply(args):
    G = _lattice(args).group
    C = cyclic_group(G.n)
    y = fw_apply(G, element_from_json(C, _load_element_data(args.element)))
    return _dump(
        {
            "group": G.label,
            "source": C.label,
            "element": element_to_json(y),
        }
    )


def cmd_fw_check(args):
    G = _lattice(args).group
    sub = resolve_selector(G, args.sub)
    report = decide_commutes(G, args.op, sub)
    cert = None
    if report.certificate is not None:
        cert = {
            "basis": report.certificate.basis_label,
            "left": report.certificate.left,
            "right": report.certificate.right,
        }
    return _dump(
        {
            "group": G.label,
            "op": report.op,
            "sub": report.sub_label,
            "commutes": report.commutes,
            "checked": report.checked,
            "certificate": cert,
        }
    )


def cmd_fw_survey(args):
    if args.catalog is None:
        specs = full_catalog()
    else:
        # read() has already turned \r\n and \r into \n
        lines = _read_user_file(args.catalog, "catalog").split("\n")
        specs = tuple(s for s in map(str.strip, lines) if s and not s.startswith("#"))
    rows = survey_rows(
        SurveyConfig(specs=specs, cap=args.cap, max_subgroups=args.max_subgroups)
    )
    if args.format == "json":
        return _dump({"rows": rows})
    if args.format == "table":
        return _render_table(SURVEY_COLUMNS, lambda: map(itemgetter(*SURVEY_COLUMNS), rows))
    lines = _Lines()
    write_survey_csv(rows, lines)
    return lines


def _verb(sub, name, handler, help, arguments, formats):
    """Add one verb's parser to sub: its handler, its own arguments (a name,
    or a name and add_argument keywords), and the common flags, with
    --format limited to the formats the verb writes, the first the default."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    for arg in arguments:
        arg_name, kwargs = (arg, {}) if isinstance(arg, str) else arg
        p.add_argument(arg_name, **kwargs)
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_ORDER_CAP,
                   help="largest allowed group order, at least 1 (default 512)")
    p.add_argument("--max-subgroups", type=_positive_int, default=DEFAULT_SUBGROUP_BUDGET,
                   help="largest subgroup count a lattice may be enumerated to, "
                        f"at least 1 (default {DEFAULT_SUBGROUP_BUDGET})")
    p.add_argument("--format", choices=formats, default=formats[0],
                   help=f"output format (default {formats[0]})")
    p.add_argument("--out", default=None, help="write output to a file")


_ELEMENT = ("element", {"help": "inline JSON or a path to an element file"})
_JSON = ("json",)

# Each verb declared once, in help order: (argv words naming it, handler,
# help, arguments, formats). "fw <verb>" is a verb of the fw family.
_VERBS = (
    (("group",), cmd_group, "order, abelianness, and element-order census", ("spec",), _JSON),
    (("lattice",), cmd_lattice, "subgroup classes with normalizer indices", ("spec",),
     ("json", "table")),
    (("marks",), cmd_marks, "table of marks over the canonical classes", ("spec",),
     ("json", "csv", "table")),
    (("idempotents",), cmd_idempotents, "primitive rational idempotents", ("spec",), _JSON),
    (("mconst",), cmd_mconst, "m-constant of a normal pair K <= L",
     ("spec", ("L", {"help": "subgroup selector for L"}),
      ("K", {"help": "subgroup selector for K (normal in L)"})), _JSON),
    (("op",), cmd_op, "apply a change-of-group operation to an element",
     (("operation", {"choices": OPERATIONS}), "spec",
      ("selector", {"help": "center | frattini | maxcyc | order=<k>:<i>"}), _ELEMENT), _JSON),
    (("fw", "apply"), cmd_fw_apply, "lift an element over the cyclic source ring",
     ("spec", _ELEMENT), _JSON),
    (("fw", "check"), cmd_fw_check, "commutativity of one operation at one subgroup",
     ("spec", ("--op", {"required": True, "choices": OPERATIONS}),
      ("--sub", {"required": True, "help": "subgroup selector"})), _JSON),
    (("fw", "survey"), cmd_fw_survey, "normal-subgroup survey over a catalog",
     (("--catalog", {"help": "file with one group spec per line (default: built-in catalog)"}),),
     ("csv", "json", "table")),
)


def build_parser(argv=()):
    """The parser for argv: the root and the one verb argv's first words
    name, or, when they name none (no argv, --help, a missing or unknown
    verb), the root and every verb. A verb's parser, and so its --help and
    every usage error it raises, is the same either way."""
    argv = tuple(argv)
    named = [v for v in _VERBS if argv[: len(v[0])] == v[0]]
    parser = _Parser(prog="fwburnside", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    fwsub = None
    for words, handler, help, arguments, formats in named or _VERBS:
        if words[0] == "fw" and fwsub is None:
            fw = sub.add_parser("fw", help="the cyclic-to-G lift and its checks")
            fwsub = fw.add_subparsers(dest="fw_command", required=True)
        _verb(fwsub if words[0] == "fw" else sub, words[-1], handler, help, arguments, formats)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)
        pieces = args.handler(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SpecParseError, InvalidParameterError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (CapExceededError, PreconditionError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2
    except (AlgebraError, AssertionError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    out = args.out
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as f:
                f.writelines(pieces)
        except OSError as exc:
            print(f"usage error: cannot write output file {out!r}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): end quietly, with what is
            # still buffered sent to devnull so the flush at exit cannot fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
