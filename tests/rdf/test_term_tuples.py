"""RDF terms as tagged tuples, against the dataclass terms they replaced.

The old terms ordered, compared and hashed field by field;
``tests/oracles/terms.py`` keeps that order.  The tuple terms must order
the same way natively, compare and hash by the same fields, keep their
type through pickle and copy, and keep the old ``repr`` and keyword
construction.  A pickled term, triple or store must also hash right in a
process with another string-hash seed, which a hash cached on the
instance broke.
"""

import copy
import json
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.rdf import (
    BlankNode,
    IRI,
    Literal,
    XSD_BOOLEAN,
    XSD_INTEGER,
    XSD_STRING,
)
from tests.oracles import term_sort_key

iris = st.text(min_size=1, max_size=6).map(IRI)
blanks = st.text(max_size=6).map(BlankNode)
literals = st.builds(Literal, st.text(max_size=6), st.sampled_from(
    [XSD_STRING, XSD_INTEGER, XSD_BOOLEAN, "urn:dt"]))
terms = st.one_of(iris, blanks, literals)


def _fields(term):
    return type(term), term_sort_key(term)


@given(st.lists(terms, max_size=12))
def test_native_order_is_the_oracle_order(items):
    assert sorted(items) == sorted(items, key=term_sort_key)


@given(terms, terms)
def test_equality_hash_and_order_follow_the_fields(a, b):
    assert (a == b) == (_fields(a) == _fields(b))
    assert (a != b) == (_fields(a) != _fields(b))
    if a == b:
        assert hash(a) == hash(b)
    assert (a < b) == (term_sort_key(a) < term_sort_key(b))
    assert (a <= b) == (term_sort_key(a) <= term_sort_key(b))


@given(terms)
def test_pickle_and_copy_keep_the_type(term):
    clones = [pickle.loads(pickle.dumps(term, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    clones += [copy.copy(term), copy.deepcopy(term)]
    for clone in clones:
        assert type(clone) is type(term)
        assert clone == term and hash(clone) == hash(term)
        assert _fields(clone) == _fields(term)


@given(terms)
def test_repr_is_the_dataclass_repr(term):
    if isinstance(term, IRI):
        assert repr(term) == f"IRI(value={term.value!r})"
    elif isinstance(term, BlankNode):
        assert repr(term) == f"BlankNode(label={term.label!r})"
    else:
        assert repr(term) == (
            f"Literal(lexical={term.lexical!r}, datatype={term.datatype!r})")
    namespace = {"IRI": IRI, "BlankNode": BlankNode, "Literal": Literal}
    assert eval(repr(term), namespace) == term  # noqa: S307 - own repr


def test_keyword_construction_and_validation_are_unchanged():
    assert IRI(value="urn:a") == IRI("urn:a")
    assert BlankNode(label="b") == BlankNode("b")
    assert Literal(lexical="3", datatype=XSD_INTEGER) == Literal("3", XSD_INTEGER)
    assert Literal(lexical="x").datatype == XSD_STRING
    with pytest.raises(ValueError):
        IRI(value="")


def test_the_two_documented_tuple_semantics():
    """A term equals the plain tuple of its tag and fields, and kinds
    order against each other instead of raising."""
    assert IRI("urn:a") == (0, "urn:a")
    assert BlankNode("b") == (1, "b")
    assert Literal("x") == (2, "x", XSD_STRING)
    assert IRI("urn:z") < BlankNode("a") < Literal("a")


_DUMP = """
import pickle, sys
from repro.rdf import BlankNode, IRI, Literal, Triple, TripleStore, XSD_INTEGER
a, b, p = IRI("urn:a"), BlankNode("b1"), IRI("urn:p")
n = Literal("7", XSD_INTEGER)
t = Triple(a, p, n)
store = TripleStore()
store.add_many([t, Triple(b, p, a), Triple(a, p, Literal("8", XSD_INTEGER))])
sys.stdout.buffer.write(pickle.dumps((a, b, n, t, {t}, store)))
"""

_LOAD = """
import json, pickle, sys
from repro.rdf import BlankNode, IRI, Literal, Triple, XSD_INTEGER
a, b, n, t, triples, store = pickle.loads(sys.stdin.buffer.read())
fa, fb, p = IRI("urn:a"), BlankNode("b1"), IRI("urn:p")
fn = Literal("7", XSD_INTEGER)
ft = Triple(fa, p, fn)
print(json.dumps({
    "iri": fa in {a} and a in {fa},
    "blank": fb in {b} and b in {fb},
    "literal": fn in {n} and n in {fn},
    "triple": ft in {t} and t in {ft},
    "triple set": ft in triples,
    "store objects": sorted(store.objects(fa, p)) == [
        fn, Literal("8", XSD_INTEGER)],
    "store subjects": store.subjects(p, fa) == [fb],
    "store in": ft in store and Triple(fb, p, fa) in store,
}))
"""


def _python(code, seed, stdin=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], input=stdin,
                          capture_output=True, env=env, timeout=120,
                          check=True)
    return done.stdout


def test_pickles_are_found_under_another_hash_seed():
    checks = json.loads(_python(_LOAD, 2, stdin=_python(_DUMP, 1)))
    assert checks == {name: True for name in checks}
    assert len(checks) == 8
