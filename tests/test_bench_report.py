"""The benchmark summaries file keeps every bench's sections.

``benchmarks/conftest.write_report`` puts one ``== title ==`` block per
summary into ``benchmarks/results.txt``.  A rerun replaces the blocks it
owns and leaves the others, so running one bench file does not erase
the sections the other benches wrote.
"""

from __future__ import annotations

from benchmarks.conftest import write_report


def test_titles_accumulate_and_a_repeat_is_replaced_once(tmp_path):
    path = tmp_path / "results.txt"
    write_report(path, "S1: first", ["one", 1])
    write_report(path, "S2: second", ["two", "", "lines"])
    write_report(path, "S1: first", ["again"])
    assert path.read_text() == (
        "== S1: first ==\nagain\n\n"
        "== S2: second ==\ntwo\n\nlines\n\n"
    )


def test_text_before_the_first_block_and_duplicates(tmp_path):
    path = tmp_path / "results.txt"
    path.write_text(
        "preamble\n\n== A ==\nold\n\n== B ==\nb\n\n== A ==\nolder\n\n"
    )
    text = write_report(path, "A", ["new"])
    assert text == "== A ==\nnew"
    assert path.read_text() == (
        "preamble\n\n== A ==\nnew\n\n== B ==\nb\n\n"
    )
