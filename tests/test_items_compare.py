"""Comparison semantics and the Section 4.7 key encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.items import (
    FALSE,
    NULL,
    TRUE,
    ArrayItem,
    DateItem,
    DecimalItem,
    DoubleItem,
    IntegerItem,
    ObjectItem,
    StringItem,
    check_sortable,
    encode_sort_key,
    grouping_key,
    item_from_python,
    ordering_tuple,
    value_compare,
    values_equal,
)
from repro.items.compare import (
    ABSENT,
    CODE_FALSE,
    CODE_NULL,
    CODE_NUMBER,
    CODE_STRING,
    CODE_TRUE,
    EMPTY_GREATEST,
    EMPTY_LEAST,
    KeyFamilies,
    raw_sort_key,
    single_atomic_key,
)
from repro.jsoniq.errors import TypeException


class TestValueCompare:
    def test_numbers_cross_type(self):
        assert value_compare(IntegerItem(2), DoubleItem(2.0)) == 0
        assert value_compare(IntegerItem(1), DecimalItem("1.5")) == -1
        assert value_compare(DoubleItem(3.0), IntegerItem(2)) == 1

    def test_strings(self):
        assert value_compare(StringItem("a"), StringItem("b")) == -1
        assert value_compare(StringItem("b"), StringItem("b")) == 0

    def test_booleans(self):
        assert value_compare(FALSE, TRUE) == -1
        assert value_compare(TRUE, TRUE) == 0

    def test_dates(self):
        assert value_compare(
            DateItem("2020-01-01"), DateItem("2020-06-01")
        ) == -1

    def test_null_smaller_than_everything(self):
        for other in (IntegerItem(-10), StringItem(""), FALSE,
                      DateItem("1970-01-01")):
            assert value_compare(NULL, other) == -1
            assert value_compare(other, NULL) == 1
        assert value_compare(NULL, NULL) == 0

    def test_incompatible_types_error(self):
        with pytest.raises(TypeException):
            value_compare(StringItem("1"), IntegerItem(1))
        with pytest.raises(TypeException):
            value_compare(TRUE, IntegerItem(1))

    def test_structured_items_error(self):
        with pytest.raises(TypeException):
            value_compare(ArrayItem([]), ArrayItem([]))
        with pytest.raises(TypeException):
            value_compare(ObjectItem({}), StringItem("x"))


class TestValuesEqual:
    def test_no_error_on_mismatch(self):
        assert not values_equal(StringItem("1"), IntegerItem(1))
        assert not values_equal(TRUE, IntegerItem(1))

    def test_numeric_promotion(self):
        assert values_equal(IntegerItem(2), DoubleItem(2.0))


class TestEncodings:
    def test_paper_type_codes(self):
        """The exact code assignment of Section 4.7."""
        assert encode_sort_key(None)[0] == EMPTY_LEAST == 1
        assert encode_sort_key(NULL)[0] == CODE_NULL == 2
        assert encode_sort_key(TRUE)[0] == CODE_TRUE == 3
        assert encode_sort_key(FALSE)[0] == CODE_FALSE == 4
        assert encode_sort_key(StringItem("x"))[0] == CODE_STRING == 5
        assert encode_sort_key(IntegerItem(1))[0] == CODE_NUMBER == 6
        assert encode_sort_key(None, empty_greatest=True)[0] \
            == EMPTY_GREATEST == 7

    def test_string_column(self):
        assert encode_sort_key(StringItem("abc")) == (5, "abc", 0.0)
        assert encode_sort_key(IntegerItem(3)) == (6, "", 3.0)

    def test_ordering_tuple_orders_jsoniq_style(self):
        """empty < null < false < true < strings/numbers."""
        ordered = [
            ordering_tuple(None),
            ordering_tuple(NULL),
            ordering_tuple(FALSE),
            ordering_tuple(TRUE),
        ]
        assert ordered == sorted(ordered)

    def test_ordering_tuple_empty_greatest(self):
        assert ordering_tuple(None, empty_greatest=True) > ordering_tuple(
            StringItem("zzz")
        )

    def test_grouping_key_distinguishes_types(self):
        """The paper's heterogeneous group-by example: 1, "foo" and true
        land in different groups without any error."""
        keys = {
            grouping_key(IntegerItem(1)),
            grouping_key(StringItem("foo")),
            grouping_key(TRUE),
            grouping_key(NULL),
            grouping_key(None),
        }
        assert len(keys) == 5

    def test_grouping_key_equates_cross_numeric(self):
        assert grouping_key(IntegerItem(2)) == grouping_key(DoubleItem(2.0))

    def test_grouping_structured_errors(self):
        with pytest.raises(TypeException):
            grouping_key(ArrayItem([]))


class TestCheckSortable:
    def test_compatible_chain(self):
        family = check_sortable(None, IntegerItem(1))
        family = check_sortable(family, DoubleItem(2.0))
        assert family == "number"

    def test_null_is_wildcard(self):
        family = check_sortable(None, NULL)
        assert check_sortable(family, StringItem("x")) == "string"

    def test_incompatible_raises(self):
        family = check_sortable(None, StringItem("x"))
        with pytest.raises(TypeException):
            check_sortable(family, IntegerItem(1))

    def test_non_atomic_raises(self):
        with pytest.raises(TypeException):
            check_sortable(None, ArrayItem([]))


class TestKeyProtocol:
    """The raw reader and the item reader are one encoder; the check
    words both clauses' errors; a summary merges as the fold folds."""

    @given(
        st.one_of(
            st.none(), st.booleans(),
            st.integers(min_value=-2**63, max_value=2**63),
            st.floats(allow_nan=False), st.text(max_size=20),
        ),
        st.booleans(),
    )
    def test_raw_reader_agrees_with_item_reader(self, value, greatest):
        assert raw_sort_key(value, greatest) == encode_sort_key(
            item_from_python(value), greatest
        )

    @pytest.mark.parametrize("greatest", [False, True])
    def test_raw_reader_on_absent_and_non_scalars(self, greatest):
        assert raw_sort_key(ABSENT, greatest) \
            == encode_sort_key(None, greatest)
        for value in ([], [1], {}, {"a": 1}, (1,), object()):
            assert raw_sort_key(value, greatest) is None

    def test_single_atomic_key_words_both_clauses(self):
        one = IntegerItem(1)
        assert single_atomic_key([]) is None
        assert single_atomic_key([one], "k") is one
        for items, variable, message in (
            ([one, one], None,
             "order-by key evaluated to more than one item"),
            ([ArrayItem([])], None, "order-by key is not atomic (array)"),
            ([one, one], "k",
             "grouping variable $k has more than one item"),
            ([ObjectItem({})], "k",
             "grouping variable $k is not atomic (object)"),
        ):
            with pytest.raises(TypeException) as raised:
                single_atomic_key(items, variable)
            assert str(raised.value) == "[XPTY0004] " + message

    @given(st.lists(
        st.one_of(st.none(), st.integers(), st.text(max_size=3),
                  st.booleans(), st.just(ABSENT)),
        max_size=12,
    ), st.integers(min_value=0, max_value=12))
    def test_merged_summaries_raise_as_the_fold(self, values, cut):
        """Any split of a key column into two runs merges to what
        check_sortable says over the whole column, message included."""
        items = [
            None if value is ABSENT else item_from_python(value)
            for value in values
        ]

        def fold():
            family = None
            for item in items:
                if item is not None:
                    family = check_sortable(family, item)

        def merged():
            runs = []
            for run in (items[:cut], items[cut:]):
                runs.append(KeyFamilies(1))
                for item in run:
                    runs[-1].add([item])
            KeyFamilies.merge(runs)

        outcomes = []
        for attempt in (fold, merged):
            try:
                attempt()
                outcomes.append(None)
            except TypeException as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
