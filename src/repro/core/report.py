"""ASCII rendering of the paper's tables from live evaluation results."""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.core.dataset import Dataset
from repro.core.metrics import EvalResult
from repro.core.question import Category, QuestionType

CATEGORY_ORDER = (Category.DIGITAL, Category.ANALOG, Category.ARCHITECTURE,
                  Category.MANUFACTURING, Category.PHYSICAL)

TABLE2_COLUMNS = ["Digital", "Analog", "Architecture", "Manufacture",
                  "Physical", "all"]


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                  title: str = "") -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(separator)
    for row in rows:
        lines.append(" | ".join(str(c).ljust(w)
                                for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(dataset: Dataset) -> str:
    """Table I: benchmark statistics."""
    rows: List[List[str]] = []
    type_counts = dataset.type_counts()
    rows.append(["Data", "Total",
                 str(len(dataset))])
    rows.append(["Data", "MC",
                 str(type_counts[QuestionType.MULTIPLE_CHOICE])])
    rows.append(["Data", "SA",
                 str(type_counts[QuestionType.SHORT_ANSWER])])
    for category, count in dataset.category_counts().items():
        rows.append(["Category", category.value, str(count)])
    for visual_type, count in dataset.visual_counts().items():
        rows.append(["Visual", visual_type.value, str(count)])
    for name, value in dataset.token_stats().as_rows():
        rows.append(["Prompt Token", name, str(value)])
    return _format_table(["Block", "Item", "Value"], rows,
                         title="TABLE I  Statistics of ChipVQA")


def render_table2(results: Mapping[str, Mapping[str, EvalResult]],
                  row_labels: Optional[Mapping[str, str]] = None) -> str:
    """Table II: zero-shot pass@1, both settings."""
    headers = (["Model"] + [f"MC:{c}" for c in TABLE2_COLUMNS]
               + [f"SA:{c}" for c in TABLE2_COLUMNS])
    rows: List[List[str]] = []
    for model_name, settings in results.items():
        label = (row_labels or {}).get(model_name, model_name)
        row = [label]
        for setting in ("with_choice", "no_choice"):
            result = settings[setting]
            values = result.row(CATEGORY_ORDER)
            row.extend(f"{v:.2f}" for v in values)
        rows.append(row)
    return _format_table(headers, rows,
                         title="TABLE II  Zero-Shot Evaluation on ChipVQA")


def render_table3(gpt4o: Mapping[str, EvalResult],
                  agent: Mapping[str, EvalResult]) -> str:
    """Table III: agent-system comparison (overall pass@1)."""
    rows = [
        ["With Choice", "GPT4o", f"{gpt4o['with_choice'].pass_at_1():.2f}"],
        ["With Choice", "Agent", f"{agent['with_choice'].pass_at_1():.2f}"],
        ["No Choice", "GPT4o", f"{gpt4o['no_choice'].pass_at_1():.2f}"],
        ["No Choice", "Agent", f"{agent['no_choice'].pass_at_1():.2f}"],
    ]
    return _format_table(
        ["Collection", "Model", "Pass@1"], rows,
        title="TABLE III  Evaluation of Agent System on ChipVQA")


def render_resolution_study(results: Mapping[int, EvalResult],
                            category: Category = Category.DIGITAL) -> str:
    """Section IV-B: pass rate per downsampling factor."""
    rows = [
        [f"{factor}x" if factor > 1 else "native",
         f"{result.pass_at_1():.2f}"]
        for factor, result in sorted(results.items())
    ]
    return _format_table(
        ["Resolution", f"Pass@1 ({category.short})"], rows,
        title="Resolution study (Section IV-B)")


def render_composition(dataset: Dataset) -> str:
    """Fig. 1-style composition summary: disciplines x difficulty."""
    rows: List[List[str]] = []
    for category in CATEGORY_ORDER:
        subset = dataset.by_category(category)
        histogram = subset.difficulty_histogram(bins=5)
        mc = subset.mc_counts_by_category()[category]
        rows.append([
            category.value,
            str(len(subset)),
            str(mc),
            str(len(subset) - mc),
            " ".join(str(b) for b in histogram),
        ])
    return _format_table(
        ["Discipline", "Questions", "MC", "SA", "Difficulty histogram"],
        rows,
        title="ChipVQA composition (Fig. 1)")
