"""Output checks: task conservation and repetition agreement."""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, List, Sequence, Tuple

#: Lifecycle events that end a task (``TaskRegistry`` / admission emit
#: exactly one of them per task).
TERMINAL_EVENTS = ("completed", "failed", "rejected")

TaskEvent = Tuple[float, str, str]  # (time, task_id, event)


def conservation_problems(
    events: Iterable[TaskEvent],
    expected: Iterable[str],
    excused: Iterable[str] = (),
) -> List[str]:
    """Why the task ledger does not balance (empty list = it does).

    Every task id in *expected* must have fired exactly one terminal
    event; no task at all may have fired two.  *excused* are tasks the
    caller already counted as failed (a live task that timed out), so a
    missing terminal event is not a second, silent loss.
    """
    terminal = Counter(
        task_id for _, task_id, event in events if event in TERMINAL_EVENTS
    )
    problems = [
        f"task {task_id} reached a terminal state {n} times"
        for task_id, n in terminal.items() if n > 1
    ]
    excused = set(excused)
    problems += [
        f"task {task_id} never reached a terminal state"
        for task_id in expected
        if task_id not in terminal and task_id not in excused
    ]
    return problems


def agreement_problems(fingerprints: Sequence[Any]) -> List[str]:
    """Repetitions of one deterministic body must match exactly."""
    first = fingerprints[0]
    return [
        f"repetition {i} differs from repetition 0: {fp!r} != {first!r}"
        for i, fp in enumerate(fingerprints[1:], start=1) if fp != first
    ]
