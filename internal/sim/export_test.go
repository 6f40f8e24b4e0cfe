package sim

// Every test of this package runs with rewound scratch poisoned: a value
// lent past its boundary (a pending update, a case subject, $display
// arguments, $monitor at EndStep, an initial block inside New) shows up as
// a wrong value in the tests that already compare values.
func init() { poisonRewound = true }
