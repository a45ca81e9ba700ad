#!/bin/sh
# Prints the public-surface census `.github/surface.txt` pins, one count a
# line. Run from the repository root; CI diffs its output against the file,
# so a count moves only in a commit that also edits the file:
#   sh .github/surface.sh > .github/surface.txt
set -eu

for dir in crates/*/; do
    crate=$(basename "$dir")
    n=$(grep -rhE '^\s*pub (fn|struct|enum|trait|const|static|mod|type) ' "$dir/src" | wc -l)
    echo "pub_items $crate $n"
done

echo "metric_names $(grep -hoE '^\s*name: "[a-z0-9_]+"' crates/obs/src/registry.rs | sort -u | wc -l)"

fields() {
    awk -v s="pub struct $1 {" '$0 == s { f = 1; next }
        f && /^}/ { f = 0 }
        f && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}
echo "config_fields QuasiiConfig $(fields QuasiiConfig crates/core/src/config.rs)"
echo "config_fields ShardConfig $(fields ShardConfig crates/shard/src/lib.rs)"
echo "config_fields ServeConfig $(fields ServeConfig crates/server/src/lib.rs)"

# `option_census` in crates/cli/src/tests.rs counts every (command, option)
# pair `parse` reads and pins the total.
echo "cli_option_pairs $(sed -nE 's/^\s*assert_eq!\(pairs, ([0-9]+)\);/\1/p' crates/cli/src/tests.rs)"

echo "env_vars $(grep -rhoE 'env::var(_os)?\("[A-Z0-9_]+"' crates/*/src | sort -u | wc -l)"
