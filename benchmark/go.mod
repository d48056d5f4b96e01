module wormcontain/benchmark

go 1.22

require wormcontain v0.0.0

replace wormcontain => ../
