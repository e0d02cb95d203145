module ndp/benchmark

go 1.24

require ndp v0.0.0

replace ndp => ../
