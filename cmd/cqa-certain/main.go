// Command cqa-certain decides CERTAINTY(q): whether a Boolean
// self-join-free conjunctive query is true in every repair of an
// uncertain database.
//
// Usage:
//
//	cqa-certain -q 'R(x | y), S(y | z)' -db facts.txt [-engine auto|fo|ptime|conp] [-repair]
//	echo 'R(a | b)' | cqa-certain -q 'R(x | y)' -db -
//
// The database file holds one fact per line, e.g. "R(a | b)"; blank
// lines and '#' comments are skipped. Exit status: 0 when certain, 1
// when not certain, 2 on errors.
package main

import (
	"os"

	"cqa/internal/cli"
)

func main() {
	os.Exit(cli.RunCertain(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
