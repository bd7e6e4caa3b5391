module proram/benchmark

go 1.22

require proram v0.0.0

replace proram => ../
