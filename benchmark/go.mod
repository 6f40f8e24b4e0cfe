module cascade/benchmark

go 1.22

require cascade v0.0.0

replace cascade => ../
