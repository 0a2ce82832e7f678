"""file formats: malformed relation and Cayley-table files end in one-line errors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstab import builtin_catalogue, cyclic, dump_relation, format_cayley_table, parse_relation
from groupstab.groups import parse_cayley_table

from test_relations import random_relation

GROUPS = [cyclic(2), cyclic(3), cyclic(4)]
CATALOGUE = builtin_catalogue(8)
NON_HEX = "gGxz-+_.!/"
MUTATIONS = ["truncated", "extra line", "non-hex", "stray trailer"]


def one_line_error(parse, text):
    with pytest.raises(ValueError) as err:
        parse(text)
    assert "\n" not in str(err.value)


@st.composite
def relation_texts(draw):
    group = draw(st.sampled_from(GROUPS))
    arity = draw(st.sampled_from([(1, 1), (2, 1), (1, 2)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rel = random_relation(group, rng, arity, proper_carriers=draw(st.booleans()))
    return group, dump_relation(rel).splitlines(), group.order ** arity[0]


@settings(max_examples=200, deadline=None)
@given(relation_texts(), st.sampled_from(MUTATIONS), st.data())
def test_malformed_relation_files_are_one_line_errors(case, mutation, data):
    group, lines, nrows = case
    assert parse_relation("\n".join(lines), group).domain.universe == nrows
    if mutation == "truncated":
        lines = lines[:1 + data.draw(st.integers(0, nrows - 1))]
    elif mutation == "extra line":
        extra = data.draw(st.text("0123456789abcdef", min_size=1))
        lines.insert(data.draw(st.integers(1 + nrows, len(lines))), extra)
    elif mutation == "non-hex":
        i = data.draw(st.integers(1, nrows))
        pos = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:pos] + data.draw(st.sampled_from(NON_HEX)) + lines[i][pos:]
    else:
        key = data.draw(st.text("ABCDEFGHIJKLMNOPQRSTUVWZxy", min_size=1))
        value = data.draw(st.text("0123456789abcdef"))
        lines.append(f"{key}={value}")
    one_line_error(lambda text: parse_relation(text, group), "\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CATALOGUE), st.sampled_from(MUTATIONS + ["header trailer"]), st.data())
def test_malformed_cayley_tables_are_one_line_errors(group, mutation, data):
    lines = format_cayley_table(group).splitlines()
    q = group.order
    assert parse_cayley_table("\n".join(lines)).order == q
    if mutation == "truncated":
        lines = lines[:1 + data.draw(st.integers(0, q - 1))]
    elif mutation == "extra line":
        row = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=q))
        lines.insert(data.draw(st.integers(1, len(lines))), " ".join(map(str, row)))
    elif mutation == "non-hex":
        i = data.draw(st.integers(1, q))
        tokens = lines[i].split()
        j = data.draw(st.integers(0, q - 1))
        tokens[j] += data.draw(st.sampled_from(NON_HEX))
        lines[i] = " ".join(tokens)
    elif mutation == "stray trailer":
        lines.append(data.draw(st.text("abcxyz=#", min_size=1)))
    else:
        lines[0] += " " + data.draw(st.text("0123456789junk", min_size=1))
    one_line_error(parse_cayley_table, "\n".join(lines) + "\n")


@pytest.mark.parametrize("head", ["-1 1 4", "1 0 4", "0 0 4"])
def test_relation_header_arities_must_be_positive(head):
    z4 = cyclic(4)
    one_line_error(lambda text: parse_relation(text, z4), f"{head} {z4.recipe_hash()}\n1\n")


@pytest.mark.parametrize("row", ["0x1", "-1", "+1", "1_0", "f f"])
def test_relation_rows_are_plain_hex(row):
    z4 = cyclic(4)
    lines = dump_relation(random_relation(z4, random.Random(0))).splitlines()
    lines[2] = row
    one_line_error(lambda text: parse_relation(text, z4), "\n".join(lines) + "\n")
