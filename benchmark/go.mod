module reesift/benchmark

go 1.24

require reesift v0.0.0

replace reesift => ../
