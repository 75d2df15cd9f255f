module github.com/radix-net/radixnet/radixbench

go 1.24

require github.com/radix-net/radixnet v0.0.0

replace github.com/radix-net/radixnet => ../
