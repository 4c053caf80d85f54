#!/usr/bin/env bash
# Prints the size metrics ROADMAP tracks beside ns/op: non-test Go
# lines of the root module and of bench/, and the root module's
# exported-symbol count (rules in scripts/size.go). CI prints it after
# the lint step; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
go run scripts/size.go
