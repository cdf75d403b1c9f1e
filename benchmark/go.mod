module rattrap/benchmark

go 1.22

require rattrap v0.0.0

replace rattrap => ../
