module lambdastore/benchmark

go 1.22

require lambdastore v0.0.0

replace lambdastore => ../
