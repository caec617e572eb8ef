"""Unit tests for the hardware coalescer model."""

import pytest

from repro.config import LINE_SIZE, PAGE_SIZE
from repro.gpu.coalescer import coalesce


def test_empty_instruction():
    access = coalesce([])
    assert access.num_pages == 0
    assert access.num_lines == 0
    assert access.num_lanes == 0


def test_single_address():
    access = coalesce([0x1000])
    assert access.num_pages == 1
    assert access.num_lines == 1


def test_same_line_lanes_merge():
    access = coalesce([0x1000, 0x1004, 0x1008, 0x103F])
    assert access.num_lines == 1
    assert access.num_lanes == 4


def test_same_page_different_lines():
    access = coalesce([0x1000, 0x1000 + LINE_SIZE, 0x1000 + 2 * LINE_SIZE])
    assert access.num_pages == 1
    assert access.num_lines == 3


def test_fully_divergent_lanes():
    addresses = [lane * PAGE_SIZE for lane in range(64)]
    access = coalesce(addresses)
    assert access.num_pages == 64
    assert access.num_lines == 64


def test_lines_grouped_under_their_page():
    addresses = [0x0, 0x40, PAGE_SIZE, PAGE_SIZE + 0x40]
    access = coalesce(addresses)
    assert set(access.lines_by_page) == {0, 1}
    assert len(access.lines_by_page[0]) == 2
    assert len(access.lines_by_page[1]) == 2


def test_line_addresses_are_line_aligned():
    access = coalesce([0x1234, 0x1278])
    for lines in access.lines_by_page.values():
        for line in lines:
            assert line % LINE_SIZE == 0


def test_first_touch_order_preserved():
    addresses = [3 * PAGE_SIZE, 1 * PAGE_SIZE, 2 * PAGE_SIZE]
    access = coalesce(addresses)
    assert list(access.lines_by_page) == [3, 1, 2]


def test_duplicate_addresses_count_once():
    access = coalesce([0x2000] * 64)
    assert access.num_lines == 1
    assert access.num_lanes == 64


def test_regular_unit_stride_instruction():
    # 64 lanes × 8-byte elements: 512 contiguous bytes = 8 lines, 1 page.
    addresses = [0x10000 + lane * 8 for lane in range(64)]
    access = coalesce(addresses)
    assert access.num_pages == 1
    assert access.num_lines == 8


def test_duplicate_lanes_keep_first_touch_order():
    # Lanes revisit earlier lines and pages; each line is listed once,
    # where its first lane touched it.
    addresses = [
        PAGE_SIZE + 0x80, 0x40, PAGE_SIZE + 0x84, 0x0, 0x44, PAGE_SIZE,
    ]
    access = coalesce(addresses)
    assert list(access.lines_by_page) == [1, 0]
    assert access.lines_by_page[1] == [PAGE_SIZE + 0x80, PAGE_SIZE]
    assert access.lines_by_page[0] == [0x40, 0x0]
    assert access.num_lanes == 6


def test_negative_address_is_rejected():
    with pytest.raises(ValueError):
        coalesce([0x1000, -8])
