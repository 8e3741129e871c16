#!/bin/sh
# Suppression-budget gate: the number of //lint:ignore suppressions in
# the tree must equal the committed budget in LINT_BUDGET.
#
# Growing the count fails the build until LINT_BUDGET is raised — a
# one-line, reviewable diff in the same PR as the new suppression, so
# the justification (the mandatory lint:ignore reason plus the PR
# discussion) is attached to the change that needs it. Shrinking the
# count also fails, in the other direction: the budget ratchets down
# with the tree so stale headroom can't absorb a future suppression
# unreviewed.
#
# It also fails when an analyzer examined nothing (`examined <name> 0`):
# a rule with no subjects in the tree is a guarantee over the empty set,
# and should be deleted or pointed at something that exists.
set -eu

counts_file=${1:-build/lint-counts.txt}
budget_file=${2:-LINT_BUDGET}

[ -f "$counts_file" ] || { echo "lint budget: $counts_file missing (run make lint)" >&2; exit 1; }
[ -f "$budget_file" ] || { echo "lint budget: $budget_file missing" >&2; exit 1; }

actual=$(awk '/^suppressed /{print $2}' "$counts_file")
budget=$(awk '!/^#/ && NF {print $1; exit}' "$budget_file")

case $actual in '' | *[!0-9]*) echo "lint budget: bad count in $counts_file" >&2; exit 1 ;; esac
case $budget in '' | *[!0-9]*) echo "lint budget: bad budget in $budget_file" >&2; exit 1 ;; esac

if [ "$actual" -gt "$budget" ]; then
    echo "lint budget: $actual suppressions in tree, budget is $budget." >&2
    echo "A new //lint:ignore needs review: raise LINT_BUDGET in this PR and justify the suppression there." >&2
    exit 1
fi
if [ "$actual" -lt "$budget" ]; then
    echo "lint budget: $actual suppressions in tree, budget is $budget." >&2
    echo "Ratchet LINT_BUDGET down to $actual so the headroom can't be spent silently." >&2
    exit 1
fi
blind=$(awk '/^examined / && $3 == 0 {print $2}' "$counts_file")
if [ -n "$blind" ]; then
    echo "lint: analyzer(s) with nothing to check in the tree:" $blind >&2
    exit 1
fi
echo "lint budget: $actual suppression(s), matching LINT_BUDGET."
