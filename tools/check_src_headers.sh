#!/usr/bin/env bash
# Keeps test-only code out of src/: fails when a header under src/ has no
# includer in src/, tools/, bench/, examples/ or perfbench/ other than its
# own .cc. Code only tests use belongs in tests/.
#
#   check_src_headers.sh        (from anywhere inside the repository)
set -u
cd "$(git rev-parse --show-toplevel)" || exit 2

status=0
for header in $(git ls-files 'src/*.h'); do
  own="${header%.h}.cc"
  if ! git grep -lF "#include \"${header#src/}\"" -- \
         src tools bench examples perfbench | grep -vxF "$own" > /dev/null; then
    echo "no includer outside tests: $header"
    status=1
  fi
done
exit "$status"
