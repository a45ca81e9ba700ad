#!/bin/sh
# Runs the grep guards of .github/guards.tsv (see its header for the columns
# and kinds). From the repository root:
#   sh .github/guards.sh              every row on the working tree, untracked
#                                     files included; fails if one fires
#   sh .github/guards.sh --self-test  also every row on its recorded commit,
#                                     read with `git grep` / `git show` (no
#                                     checkout); fails if one does not fire there
# Both modes read a tree through `git`, so each kind has one matcher.
set -euf
cd "$(dirname "$0")/.."

# show REV FILE: FILE as it is in REV (`tree`: the working tree).
show() {
    if [ "$1" = tree ]; then cat "$2"; else git show "$1:$2"; fi
}

# hits REV PATTERN EXCLUDES PATHSPEC...: every line PATTERN matches, as
# file:line:text.
hits() {
    rev=$1 pat=$2 ex=$3
    shift 3
    case $pat in
    '(?i)'*) icase=-i pat=${pat#'(?i)'} ;;
    *) icase= ;;
    esac
    for e in $ex; do
        [ "$e" = - ] || set -- "$@" ":(exclude)*/$e"
    done
    if [ "$rev" = tree ]; then
        git grep -n -I -E $icase --untracked -e "$pat" -- "$@" || true
    else
        git grep -n -I -E $icase -e "$pat" "$rev" -- "$@" | cut -d: -f2-
    fi
}

# outside_tests REV: keeps the hits on stdin that lie above their file's
# test module in REV.
outside_tests() {
    while IFS= read -r hit; do
        file=${hit%%:*} rest=${hit#*:}
        start=$(show "$1" "$file" | awk '
            /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { at = NR; next }
            at && NR == at + 1 && /^[ \t]*(pub(\([a-z]+\))? )?mod / { print at; exit }')
        [ -n "$start" ] && [ "${rest%%:*}" -ge "$start" ] || printf '%s\n' "$hit"
    done
}

# fired REV KIND PATTERN EXCLUDES PATHSPEC...: prints why the row fires in
# REV, one line a match; prints nothing when it does not.
fired() {
    rev=$1 kind=$2
    shift 2
    case $kind in
    absent) hits "$rev" "$@" ;;
    absent-outside-tests) hits "$rev" "$@" | outside_tests "$rev" ;;
    exactly-one:*)
        found=$(hits "$rev" "$@")
        if [ "$(printf '%s\n' "$found" | grep -c .)" != 1 ] \
            || [ "${found%%:*}" != "${kind#exactly-one:}" ]; then
            printf '%s\n' "${found:-no match}" "expected exactly one match, in ${kind#exactly-one:}"
        fi ;;
    *) echo "unknown kind $kind" ;;
    esac
}

fail=0 rows=0
while IFS='	' read -r name commit kind paths excludes pattern reason; do
    case $name in '#'* | '') continue ;; esac
    rows=$((rows + 1))
    bad=$(fired tree "$kind" "$pattern" "$excludes" $paths < /dev/null)
    if [ -n "$bad" ]; then
        printf '%s\n' "$bad" "guard $name fires: $reason"
        fail=1
    fi
    if [ "${1-}" = --self-test ]; then
        n=$(fired "$commit" "$kind" "$pattern" "$excludes" $paths < /dev/null | grep -c . || true)
        if [ "$n" = 0 ]; then
            echo "guard $name does not fire on $commit"
            fail=1
        else
            echo "guard $name fires on $commit ($n lines)"
        fi
    fi
done < .github/guards.tsv
[ "$fail" = 0 ] && echo "$rows guards pass${1+ $1}"
exit "$fail"
