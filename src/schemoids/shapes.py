"""Every JSON document the package reads, declared once, and `check`.

A spec is a tree of nodes: `Obj` (required and optional fields), `Arr` (an
array of one spec, of a given length if it says so), `Map` (an object
whose values share one spec), `Tup` (an array of fixed length), `Atom` (a
value of one JSON type, an integer with optional bounds among them),
`OneOf`, `Kind` (an object whose "kind" field picks its spec) and
`Composition` (a category's "compose", whose first entry picks the spec
of all its entries).  `check` walks the document once; at the first
misfit it raises the error class of the innermost node around it that
names one (else `MalformedDocument`), with the message "path: what was
expected, not what was found", and keeps the misfit's JSON path, such as
`system.push[3]`, as the error's `path`.  The path is put together only
while the misfit unwinds.  A node given its own `what`, or an array given
`each`, is described as a whole, at its own path, before the misfit in it.
"""

from __future__ import annotations

from operator import itemgetter

from .fincat import CategoryError, MalformedDocument, SchemoidsError


class Misfit(SchemoidsError):
    """The first misfit of a walk.  `steps` run from it up to the root;
    `wholes` holds (steps below it, message) for each node around it that
    is described as a whole, the innermost first."""

    def __init__(self, phrase, *steps):
        super().__init__(phrase)
        self.phrase, self.steps, self.wholes, self.error = phrase, list(steps), [], None

    def up(self, spec, *step):
        """The misfit unwinding out of spec, the value at `step` in its parent."""
        self.error = self.error or spec.error
        if spec.inside and self.steps:
            self.wholes.append((len(self.steps), spec.inside))
        self.steps += step
        return self


class Node:
    def __init__(self, what, inside=None, name=None, error=None):
        self.what = what            # what fits, for the message: "a JSON array"
        self.inside = inside        # the message of a misfit inside, given at this node
        self.name = name            # the document's name, shown for its root
        self.error = error          # the class a misfit in this subtree is refused with

    def misfit(self, v, got=None):
        raise Misfit(f"{self.what} expected, not {got or type(v).__name__}")

    def all_fit(self, vs):
        """Whether one pass over all of vs finds each fit; False leaves
        them to be walked one by one."""
        return False


def _each(spec, items):
    """Walk spec over the values of the (step, value) items."""
    for step, x in items:
        try:
            spec.walk(x)
        except Misfit as m:
            raise m.up(spec, step) from None


class Atom(Node):
    def __init__(self, kind, what, low=None, high=None):
        super().__init__(what)
        self.kind, self.low, self.high = kind, low, high

    def walk(self, v):
        if (type(v) is not self.kind or self.low is not None and v < self.low
                or self.high is not None and v > self.high):
            self.misfit(v, type(v) is self.kind and repr(v))

    def all_fit(self, vs):
        return (self.low is None and self.high is None
                and list(map(type, vs)).count(self.kind) == len(vs))


class Arr(Node):
    def __init__(self, item, what=None, each=None, length=None, **kw):
        shape = "a JSON array" + ("" if length is None else f" of {length} entries")
        super().__init__(what or shape, each or (what and f"{what} expected"), **kw)
        self.item, self.length = item, length

    def walk(self, v):
        if type(v) is not list or self.length not in (None, len(v)):
            self.misfit(v, type(v) is list and f"{len(v)} entries")
        if not self.item.all_fit(v):
            _each(self.item, enumerate(v))


class Composition(Node):
    """A category's "compose": a table of `table` entries if `is_table`
    says so, else an array of `labels` entries."""

    def __init__(self, labels, table):
        super().__init__("a JSON array")
        self.labels, self.table = labels, table

    def walk(self, v):
        if type(v) is not list:
            self.misfit(v)
        item = self.table if is_table(v) else self.labels
        if not item.all_fit(v):
            _each(item, enumerate(v))


class Map(Node):
    def __init__(self, value, what=None, **kw):
        super().__init__(what or "a JSON object", what and f"{what} expected", **kw)
        self.value = value

    def walk(self, v):
        if type(v) is not dict:
            self.misfit(v)
        if not self.value.all_fit(v.values()):
            _each(self.value, v.items())


class Tup(Node):
    def __init__(self, *items, what=None):
        super().__init__(what or f"a JSON array of {len(items)} entries", what and f"{what} expected")
        self.items = items

    def walk(self, v):
        if type(v) is not list or len(v) != len(self.items):
            self.misfit(v, type(v) is list and f"{len(v)} entries")
        for i, spec in enumerate(self.items):
            _each(spec, ((i, v[i]),))


class OneOf(Node):
    def __init__(self, *alternatives, what):
        super().__init__(what)
        self.alternatives = alternatives

    def walk(self, v):
        for spec in self.alternatives:
            try:
                return spec.walk(v)
            except Misfit:
                pass
        self.misfit(v)


class Obj(Node):
    """A required field that is missing is refused as `missing` says
    ("missing from the bundle"), or else as a null."""

    def __init__(self, fields, optional=(), missing=None, **kw):
        super().__init__("a JSON object", **kw)
        self.fields, self.optional, self.missing = fields, dict(optional), missing
        plain = not optional and all(type(s) is Atom and s.low is None for s in fields.values())
        self.columns = plain and [(itemgetter(k), s) for k, s in fields.items()]

    def walk(self, v):
        if type(v) is not dict:
            self.misfit(v)
        for k, spec in (*self.fields.items(), *self.optional.items()):
            if k in v or k not in self.optional and not self.missing:
                _each(spec, ((k, v.get(k)),))
            elif k not in self.optional:
                raise Misfit(f"missing from {self.missing}", k)

    def all_fit(self, vs):
        """Records of plain fields, such as a category's morphisms, are
        checked a field at a time over all of them."""
        try:
            return self.columns and all(list(map(type, map(get, vs))).count(s.kind) == len(vs)
                                        for get, s in self.columns)
        except (KeyError, TypeError):       # a value that is no object, or lacks a field
            return False


class Kind(Node):
    """An object whose "kind" field, `default` when absent, names its spec."""

    def __init__(self, default, variants):
        super().__init__("a JSON object")
        self.default, self.variants = default, variants

    def walk(self, v):
        if type(v) is not dict:
            self.misfit(v)
        kind = v.get("kind", self.default)
        if type(kind) is not str or kind not in self.variants:
            *names, last = map(repr, self.variants)
            raise Misfit(f"{kind!r} is not {', '.join(names)} or {last}", "kind")
        self.variants[kind].walk(v)


def _path(at, steps):
    for step in steps:
        at = f"{at}[{step}]" if type(step) is int else f"{at}.{step}" if at else step
    return at


def check(spec, raw, at=""):
    """raw, the document at JSON path `at`, once it fits spec; else it is
    refused at its first misfit."""
    try:
        spec.walk(raw)
    except Misfit as m:
        m.up(spec)
        steps, phrase = m.steps[::-1], m.phrase
        where = path = _path(at, steps)
        for below, whole in m.wholes:
            phrase, where = f"{whole}; {where}: {phrase}", _path(at, steps[:len(steps) - below])
        err = (m.error or MalformedDocument)(f"{where or spec.name}: {phrase}")
        err.path = path
        raise err from None
    return raw


def is_table(compose):
    """Whether a category's "compose" array is written as a table of
    morphism positions rather than as [f, g, fg] label triples: its first
    entry is no array.  An empty one lists no triple."""
    return bool(compose) and type(compose[0]) is not list


def is_bundle(raw):
    """Whether raw, given to `validate`, is a bundle rather than a category:
    an object with a "category" field."""
    return type(raw) is dict and "category" in raw


STR = Atom(str, "a string")
BOOL = Atom(bool, "a boolean")
INT = Atom(int, "an integer")
NAT = Atom(int, "a non-negative integer", low=0)
MATRIX = Arr(Arr(INT), what="an array of arrays of integers")

# The documents.  A category's "compose" is written in one of two forms,
# which the JSON type of its first entry tells apart (`is_table`): the
# table `fincat.serialize` writes, one integer per composable pair (f in
# morphism order, g over the morphisms into src f in morphism order, the
# entry the position of f∘g in "morphisms"), or hand-written [f, g, fg]
# label triples, where the pairs the unit laws fill in may be left out.
# Every table entry is checked here to be an integer, in one pass over
# them; its length and range are checked by `positions` once the
# morphisms are known, and only when a read finds them wrong.  Label
# triples are checked here only for being arrays: `fincat.read_category`
# unpacks and looks up each one anyway, and checks them against COMPOSE
# only when that read fails.
CATEGORY = Obj({
    "objects": Arr(STR),
    "morphisms": Arr(Obj({"id": STR, "src": STR, "tgt": STR}),
                     each="each entry must be an object with id, src and tgt"),
    "identities": Map(STR),                                 # object -> its identity
    "compose": Composition(Atom(list, "a JSON array [f, g, fg]"),
                           Atom(int, "a morphism position")),
}, name="category", error=CategoryError)

COMPOSE = Arr(Tup(STR, STR, STR, what="a JSON array [f, g, fg]"), error=CategoryError)


def positions(m, pairs):
    """A category's "compose" table for m morphisms and `pairs` composable
    pairs: that many entries, each a position below m."""
    return Arr(Atom(int, f"a morphism position below {m}", low=0, high=m - 1), length=pairs,
               error=CategoryError)

GROUPOID = Obj({**CATEGORY.fields, "inverse": Map(STR, error=MalformedDocument)},
               name="groupoid", error=CategoryError)

PARTITION = Obj({"blocks": Map(Arr(STR), what="an object of arrays of morphisms")})

FUNCTOR = Obj({"objects": Map(STR), "morphisms": Map(STR)}, {"contravariant": BOOL})

BUNDLE = Obj({"category": CATEGORY, "partition": PARTITION},
             {"involution": FUNCTOR, "base_points": Arr(STR)}, missing="the bundle", name="bundle")

SCHEME = Obj({"size": INT, "relations": MATRIX}, {"points": Arr(STR), "classes": Arr(STR)},
             name="scheme")

GROUP_TABLE = Obj({"elements": Arr(STR)}, name="group table")


def square(n):
    """The "table" of a group table of n elements, table[i][j] =
    elements[i] * elements[j], checked once the elements are."""
    return Tup(*[Tup(*[STR] * n)] * n, what=f"{n} rows of {n} entries")


PERMS = Obj({"perms": MATRIX, "size": NAT}, name="group")

HOM_COUNTS = MATRIX             # |Hom(i, j)| = z[i][j], for `thicken --matrix`

_MATRICES = Arr(Tup(STR, STR, MATRIX, what="[a, b, matrix]"))      # [[a, f, a_*], ...]

# A system's "modulus" is not declared: the system itself refuses any
# value but null or an integer >= 2, as InvalidModulus.
SYSTEM = Kind("explicit", {
    "trivial": Obj({}, {"rank": NAT}),
    "induced": Obj({"object_ranks": Map(NAT, what="an object of non-negative integers"),
                    "maps": Map(MATRIX, what="an object of arrays of arrays of integers")}),
    "explicit": Obj({"ranks": Map(NAT), "push": _MATRICES, "pull": _MATRICES}),
})

COCYCLE = Obj({"entries": Arr(Tup(STR, STR, OneOf(INT, Arr(INT),
                                                  what="an array of integers or one integer"),
                                  what="[f, g, vector]"))})

EXTENSION = Obj({"base": CATEGORY, "system": SYSTEM, "cocycle": COCYCLE},
                missing="the extension document", name="extension")
