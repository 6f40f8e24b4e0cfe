// Package archtest checks the tree's architecture rules, one site per
// decision, as a table over the parsed source: `go test ./internal/archtest`
// runs every row, `-run 'TestRules/<group>/<row>'` one.
package archtest
